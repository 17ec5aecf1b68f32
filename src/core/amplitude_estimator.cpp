#include "core/amplitude_estimator.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/energy_scan.h"
#include "dsp/workspace.h"

namespace anc {

namespace {

struct Window_stats {
    double mu_raw = 0.0;    // mean |y|^2 including noise
    double sigma_raw = 0.0; // mean of |y|^2 over samples with |y|^2 > mu_raw
};

Window_stats energy_stats(dsp::Signal_view window)
{
    Window_stats stats;
    auto energies = dsp::Workspace::current().reals();
    dsp::sample_energies_into(window, *energies);
    const std::vector<double>& e = *energies;
    double sum = 0.0;
    for (const double v : e)
        sum += v;
    stats.mu_raw = sum / static_cast<double>(e.size());

    // sigma as defined in §6.2: (2/N) * sum of energies above the mean.
    // With random phase offsets, about half the samples land above the
    // mean, so the 2/N prefactor makes this the conditional expectation
    // E[|y|^2 | |y|^2 > mu].
    //
    // The accumulation is branchless: under interference roughly every
    // other sample crosses the mean, so the old data-driven branch
    // mispredicted constantly; the select compiles to a cmov/blend and
    // the loop pipelines.  Byte-identical to the guarded form — adding
    // +0.0 to a non-negative partial sum is the identity, and energies
    // are non-negative — so the serial chain's value is unchanged.
    const double mu = stats.mu_raw;
    double above = 0.0;
    for (const double v : e)
        above += v > mu ? v : 0.0;
    stats.sigma_raw = 2.0 * above / static_cast<double>(e.size());
    return stats;
}

/// The estimators' common exit: an estimate is usable only when both
/// amplitudes are finite and positive.  One NaN or Inf sample poisons
/// mu and sigma, and a NaN slips past every `<= 0` rejection above it.
std::optional<Amplitude_estimate> usable(const Amplitude_estimate& estimate)
{
    if (std::isfinite(estimate.a) && std::isfinite(estimate.b) && estimate.a > 0.0
        && estimate.b > 0.0)
        return estimate;
    return std::nullopt;
}

} // namespace

std::optional<Amplitude_estimate> estimate_amplitudes(dsp::Signal_view overlap,
                                                      double noise_power,
                                                      std::size_t min_window)
{
    if (overlap.size() < min_window)
        return std::nullopt;

    const Window_stats stats = energy_stats(overlap);
    const double mu = stats.mu_raw - noise_power;
    const double sigma = stats.sigma_raw - noise_power;
    if (mu <= 0.0)
        return std::nullopt;

    // 4AB/pi = sigma - mu  =>  AB = pi (sigma - mu) / 4.
    const double product = std::max(std::numbers::pi * (sigma - mu) / 4.0, 0.0);
    // A^2 and B^2 are the roots of z^2 - mu z + (AB)^2 = 0.
    double discriminant = mu * mu - 4.0 * product * product;
    if (discriminant < 0.0)
        discriminant = 0.0; // estimation noise near A == B
    const double root = std::sqrt(discriminant);
    const double a2 = (mu + root) / 2.0;
    const double b2 = (mu - root) / 2.0;
    if (b2 < 0.0)
        return std::nullopt;

    Amplitude_estimate estimate;
    estimate.a = std::sqrt(a2);
    estimate.b = std::sqrt(b2);
    estimate.mu = mu;
    estimate.sigma = sigma;
    return usable(estimate);
}

std::optional<Amplitude_estimate> estimate_with_known_amplitude(dsp::Signal_view overlap,
                                                                double noise_power,
                                                                double known_amplitude,
                                                                std::size_t min_window)
{
    if (overlap.size() < min_window || known_amplitude <= 0.0)
        return std::nullopt;

    const Window_stats stats = energy_stats(overlap);
    const double mu = stats.mu_raw - noise_power;
    const double b2 = mu - known_amplitude * known_amplitude;
    if (b2 <= 0.0)
        return std::nullopt;

    Amplitude_estimate estimate;
    estimate.a = known_amplitude;
    estimate.b = std::sqrt(b2);
    estimate.mu = mu;
    estimate.sigma = stats.sigma_raw - noise_power;
    return usable(estimate);
}

std::optional<Amplitude_estimate> estimate_amplitudes_by_variance(dsp::Signal_view overlap,
                                                                  double noise_power,
                                                                  std::size_t min_window)
{
    if (overlap.size() < min_window)
        return std::nullopt;

    auto energies = dsp::Workspace::current().reals();
    dsp::sample_energies_into(overlap, *energies);
    const std::vector<double>& e = *energies;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const double v : e) {
        sum += v;
        sum_sq += v * v;
    }
    const auto n = static_cast<double>(e.size());
    const double mean = sum / n;
    const double variance = std::max(sum_sq / n - mean * mean, 0.0);

    const double mu = mean - noise_power;
    if (mu <= 0.0)
        return std::nullopt;
    // Noise contributes 2*mean_signal*sigma^2 (cross term) + sigma^4 to
    // the energy variance; remove it before reading off 2(AB)^2.
    const double noise_variance = 2.0 * mu * noise_power + noise_power * noise_power;
    const double signal_variance = std::max(variance - noise_variance, 0.0);
    const double product = std::sqrt(signal_variance / 2.0);

    double discriminant = mu * mu - 4.0 * product * product;
    if (discriminant < 0.0)
        discriminant = 0.0;
    const double root = std::sqrt(discriminant);
    const double a2 = (mu + root) / 2.0;
    const double b2 = (mu - root) / 2.0;
    if (b2 < 0.0)
        return std::nullopt;

    Amplitude_estimate estimate;
    estimate.a = std::sqrt(a2);
    estimate.b = std::sqrt(b2);
    estimate.mu = mu;
    estimate.sigma = mu + 4.0 * product / std::numbers::pi; // Eq. 6 equivalent
    return usable(estimate);
}

double amplitude_from_clean_region(dsp::Signal_view region, double noise_power)
{
    const double power = std::max(dsp::mean_energy(region) - noise_power, 0.0);
    return std::sqrt(power);
}

} // namespace anc
