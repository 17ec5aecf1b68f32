#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace anc {

void Running_stats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double Running_stats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double Running_stats::sample_variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double Running_stats::stddev() const
{
    return std::sqrt(variance());
}

void Cdf::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void Cdf::add_all(const std::vector<double>& xs)
{
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void Cdf::ensure_sorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double Cdf::quantile(double q) const
{
    if (samples_.empty())
        throw std::logic_error{"Cdf::quantile on empty distribution"};
    ensure_sorted();
    q = std::clamp(q, 0.0, 1.0);
    const double position = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(position);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = position - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Cdf::mean() const
{
    if (samples_.empty())
        return 0.0;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0)
        / static_cast<double>(samples_.size());
}

double Cdf::min() const
{
    if (samples_.empty())
        throw std::logic_error{"Cdf::min on empty distribution"};
    ensure_sorted();
    return samples_.front();
}

double Cdf::max() const
{
    if (samples_.empty())
        throw std::logic_error{"Cdf::max on empty distribution"};
    ensure_sorted();
    return samples_.back();
}

const std::vector<double>& Cdf::sorted_samples() const
{
    ensure_sorted();
    return samples_;
}

} // namespace anc
