// The paper's numbers, each written once.
//
// Every paper-vs-measured line a figure driver or summary_table prints
// comes from an entry here, through bench::print_compare
// (bench_util.h), and the ctest integration.paper_fidelity checks every
// such line against the corridor and profile width it prints.  A
// corridor is written against the paper (how precisely the paper states
// or plots the value), never against a measurement.
//
// Two lines may share an entry when they measure one paper number; the
// statistic each prints (mean, p90, ...) follows the label on the line.

#pragma once

namespace anc::bench {

/// Where a measurement must sit relative to the paper's value.
struct Corridor {
    double half_width = 0.0; ///< two-sided: |measured - paper| <= half_width
    bool at_most = false;    ///< one-sided instead: measured <= paper
};

constexpr Corridor plus_minus(double half_width) { return {half_width, false}; }
constexpr Corridor at_most() { return {0.0, true}; }

struct Paper_value {
    const char* label;           ///< what the paper measures
    double paper;                ///< the paper's value
    Corridor corridor;           ///< where a reproduction must land
    double profiles_within;      ///< how far fast may sit from exact
    const char* source;          ///< section or figure; stated in text or read off a plot
    const char* known_gap = nullptr; ///< why no corridor the paper supports is met
};

namespace paper {

// §8, Theorem 8.1: the capacity bounds of Fig. 7, read off the plot to
// +-0.10 on either axis.  Closed form: no math profile applies, so the
// profile width is 0.

inline constexpr Paper_value capacity_gain_25db{
    .label = "Fig. 7: capacity gain at 25 dB",
    .paper = 1.55,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.0,
    .source = "Fig. 7, read off the plot",
};

inline constexpr Paper_value capacity_gain_40db{
    .label = "Fig. 7: capacity gain at 40 dB",
    .paper = 1.70,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.0,
    .source = "Fig. 7, read off the plot",
};

inline constexpr Paper_value traditional_capacity_55db{
    .label = "Fig. 7: traditional b/s/Hz at 55 dB",
    .paper = 4.5,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.0,
    .source = "Fig. 7, read off the plot",
    .known_gap = "capacity.h scales both Theorem 8.1 bounds by one alpha (1/8); "
                 "traditional needs alpha <= 0.1225 and ANC alpha >= 0.1229 to sit "
                 "in their corridors at 55 dB",
};

inline constexpr Paper_value anc_capacity_55db{
    .label = "Fig. 7: ANC b/s/Hz at 55 dB",
    .paper = 8.3,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.0,
    .source = "Fig. 7, read off the plot",
};

inline constexpr Paper_value capacity_crossover_db{
    .label = "Fig. 7: SNR (dB) above which ANC beats traditional",
    .paper = 8.0,
    .corridor = at_most(),
    .profiles_within = 0.0,
    .source = "Fig. 7, read off the plot: low-SNR region ~0-8 dB",
    .known_gap = "the crossover does not depend on alpha: the two Theorem 8.1 bounds "
                 "as capacity.h writes them cross above the plotted ~8 dB",
};

// §11.3 "Summary of Results" and §11.4: Alice-Bob (Figs. 1, 9).

inline constexpr Paper_value alice_bob_gain_over_traditional{
    .label = "Alice-Bob: ANC gain over traditional",
    .paper = 1.70,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.08,
    .source = "§11.3, stated; Fig. 9(a)",
};

inline constexpr Paper_value alice_bob_gain_over_cope{
    .label = "Alice-Bob: ANC gain over COPE",
    .paper = 1.30,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.08,
    .source = "§11.3, stated; Fig. 9(a)",
};

inline constexpr Paper_value alice_bob_ber{
    .label = "Alice-Bob: ANC packet BER",
    .paper = 0.04,
    .corridor = at_most(),
    .profiles_within = 0.005,
    .source = "§11.3, stated: most packets below 4%; Fig. 9(b)",
};

inline constexpr Paper_value alice_bob_overlap{
    .label = "Alice-Bob: packet overlap",
    .paper = 0.80,
    .corridor = plus_minus(0.05),
    .profiles_within = 0.005,
    .source = "§11.4, stated",
};

// §11.5: the X topology (Figs. 10, 11).

inline constexpr Paper_value x_gain_over_traditional{
    .label = "X: ANC gain over traditional",
    .paper = 1.65,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.08,
    .source = "§11.3, stated; Fig. 10(a)",
};

inline constexpr Paper_value x_gain_over_cope{
    .label = "X: ANC gain over COPE",
    .paper = 1.28,
    .corridor = plus_minus(0.10),
    .profiles_within = 0.08,
    .source = "§11.3, stated; Fig. 10(a)",
};

// §11.6: the chain (Figs. 2, 12).

inline constexpr Paper_value chain_gain_over_traditional{
    .label = "Chain: ANC gain over traditional",
    .paper = 1.36,
    .corridor = plus_minus(0.06),
    .profiles_within = 0.08,
    .source = "§11.3, stated; Fig. 12(a)",
};

// Two readings of Fig. 12(b) used to disagree (0.010 in the figure
// driver, 0.015 in the summary's fidelity row), and no paper text in
// this repository settles them.  The lower one is kept: with a
// one-sided corridor it is the stricter test, and both readings put
// N2's BER well under Alice-Bob's 4%.
inline constexpr Paper_value chain_ber_at_n2{
    .label = "Chain: BER at N2 (vs ~4% on Alice-Bob)",
    .paper = 0.010,
    .corridor = at_most(),
    .profiles_within = 0.005,
    .source = "Fig. 12(b), read off the plot",
};

// §11.7: decoding at Alice across SIR (Fig. 13).

inline constexpr Paper_value ber_at_sir_minus_3db{
    .label = "BER at SIR -3 dB (decoding at Alice)",
    .paper = 0.05,
    .corridor = at_most(),
    .profiles_within = 0.005,
    .source = "§11.7, stated: BER < 5% at -3 dB SIR; Fig. 13",
};

inline constexpr Paper_value ber_at_sir_0db{
    .label = "BER at SIR 0 dB (decoding at Alice)",
    .paper = 0.02,
    .corridor = at_most(),
    .profiles_within = 0.005,
    .source = "Fig. 13, read off the plot",
    .known_gap = "the errors mid-curve are unexplained; see ROADMAP "
                 "'Explain every lost packet', second case",
};

} // namespace paper
} // namespace anc::bench
