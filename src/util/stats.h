// Empirical CDFs.
//
// Every figure in the paper's evaluation is a CDF (Figs. 9, 10, 12) or a
// curve of means (Fig. 13), so the metrics layer needs percentile queries.

#pragma once

#include <cstddef>
#include <vector>

namespace anc {

/// Empirical distribution over a batch of samples.
class Cdf {
public:
    void add(double x);
    void add_all(const std::vector<double>& xs);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /// Value at cumulative fraction q in [0,1] (inclusive interpolation of
    /// order statistics).  Requires at least one sample.
    double quantile(double q) const;

    double mean() const;
    double min() const;
    double max() const;

    const std::vector<double>& sorted_samples() const;

    /// The samples in their CURRENT stored order, without the lazy-sort
    /// side effect of sorted_samples().  Mean() and merge() accumulate
    /// in stored order, so exact replay (the sweep journal) must
    /// serialize and reconstruct this order, not the sorted one.
    const std::vector<double>& stored_samples() const { return samples_; }

private:
    void ensure_sorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace anc
