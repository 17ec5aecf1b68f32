#include "engine/emit.h"

#include <sstream>

#include "engine/text.h"

namespace anc::engine {

namespace {

using text::fmt_double;
using text::fmt_u64;
using text::json_escape;

struct Cdf_stats {
    std::size_t count = 0;
    double mean = 0.0, p50 = 0.0, p90 = 0.0, min = 0.0, max = 0.0;
};

Cdf_stats stats_of(const Cdf& cdf)
{
    Cdf_stats stats;
    stats.count = cdf.count();
    if (!cdf.empty()) {
        stats.mean = cdf.mean();
        stats.p50 = cdf.quantile(0.50);
        stats.p90 = cdf.quantile(0.90);
        stats.min = cdf.min();
        stats.max = cdf.max();
    }
    return stats;
}

void json_cdf(std::ostream& out, const Cdf& cdf)
{
    const Cdf_stats stats = stats_of(cdf);
    out << "{\"count\":" << stats.count << ",\"mean\":" << fmt_double(stats.mean)
        << ",\"p50\":" << fmt_double(stats.p50) << ",\"p90\":" << fmt_double(stats.p90)
        << ",\"min\":" << fmt_double(stats.min) << ",\"max\":" << fmt_double(stats.max) << "}";
}

void json_key_fields(std::ostream& out, const Point_key& key)
{
    out << "\"scenario\":\"" << json_escape(key.scenario) << "\",\"scheme\":\""
        << json_escape(key.scheme) << "\",\"math_profile\":\""
        << dsp::to_string(key.math_profile) << "\",\"snr_db\":" << fmt_double(key.snr_db)
        << ",\"alice_amplitude\":" << fmt_double(key.alice_amplitude)
        << ",\"bob_amplitude\":" << fmt_double(key.bob_amplitude)
        << ",\"payload_bits\":" << key.payload_bits
        << ",\"exchanges\":" << key.exchanges
        << ",\"detector_threshold_db\":" << fmt_double(key.detector_threshold_db)
        << ",\"interleave_rows\":" << key.interleave_rows
        << ",\"coherence_block\":" << key.coherence_block
        << ",\"mean_link_gain\":" << fmt_double(key.mean_link_gain);
}

void json_metrics(std::ostream& out, const sim::Run_metrics& metrics)
{
    out << "{\"packets_attempted\":" << metrics.packets_attempted
        << ",\"packets_delivered\":" << metrics.packets_delivered
        << ",\"payload_bits_delivered\":" << metrics.payload_bits_delivered
        << ",\"airtime_symbols\":" << fmt_double(metrics.airtime_symbols)
        << ",\"delivery_rate\":" << fmt_double(metrics.delivery_rate())
        << ",\"mean_ber\":" << fmt_double(metrics.mean_ber())
        << ",\"mean_overlap\":" << fmt_double(metrics.mean_overlap())
        << ",\"raw_throughput\":" << fmt_double(metrics.raw_throughput())
        << ",\"throughput\":" << fmt_double(metrics.throughput()) << "}";
}

void json_scalars(std::ostream& out, const std::map<std::string, double>& scalars)
{
    out << "{";
    bool first = true;
    for (const auto& [name, value] : scalars) {
        out << (first ? "" : ",") << "\"" << json_escape(name) << "\":" << fmt_double(value);
        first = false;
    }
    out << "}";
}

} // namespace

void write_tasks_csv_header(std::ostream& out)
{
    out << "#schema=" << sweep_schema << '\n';
    out << "index,scenario,scheme,math_profile,snr_db,alice_amplitude,bob_amplitude,"
           "payload_bits,exchanges,detector_threshold_db,interleave_rows,"
           "coherence_block,mean_link_gain,repetition,seed,status,packets_attempted,"
           "packets_delivered,payload_bits_delivered,airtime_symbols,delivery_rate,"
           "mean_ber,mean_overlap,raw_throughput,throughput\n";
}

void write_task_csv_row(std::ostream& out, const Task_result& result)
{
    const Sweep_task& task = result.task;
    const sim::Run_metrics& metrics = result.result.metrics;
    out << task.index << ',' << task.scenario << ',' << task.config.scheme << ','
        << dsp::to_string(task.config.math_profile) << ','
        << fmt_double(task.config.snr_db) << ','
        << fmt_double(task.config.alice_amplitude) << ','
        << fmt_double(task.config.bob_amplitude) << ',' << task.config.payload_bits << ','
        << task.config.exchanges << ','
        << fmt_double(task.config.receiver.interference_detector.variance_threshold_db)
        << ',' << task.config.fec_interleave_rows << ','
        << task.config.coherence_block << ',' << fmt_double(task.config.mean_link_gain)
        << ',' << task.repetition << ','
        << fmt_u64(result.seed) << ',' << to_string(result.status) << ','
        << metrics.packets_attempted << ','
        << metrics.packets_delivered << ',' << metrics.payload_bits_delivered << ','
        << fmt_double(metrics.airtime_symbols) << ','
        << fmt_double(metrics.delivery_rate()) << ',' << fmt_double(metrics.mean_ber())
        << ',' << fmt_double(metrics.mean_overlap()) << ','
        << fmt_double(metrics.raw_throughput()) << ',' << fmt_double(metrics.throughput())
        << '\n';
}

void write_task_json(std::ostream& out, const Task_result& result)
{
    out << "{\"index\":" << result.task.index << ",";
    json_key_fields(out, key_of(result.task));
    // Seeds use the full 64-bit range; JSON numbers only round-trip 53
    // bits, so seeds travel as strings in both formats.
    out << ",\"repetition\":" << result.task.repetition << ",\"seed\":\""
        << fmt_u64(result.seed) << "\",\"status\":\"" << to_string(result.status)
        << "\"";
    if (result.status == Task_status::error)
        out << ",\"error\":\"" << json_escape(result.error) << "\"";
    out << ",\"metrics\":";
    json_metrics(out, result.result.metrics);
    out << ",\"scalars\":";
    json_scalars(out, result.result.scalars);
    out << "}";
}

void write_point_json(std::ostream& out, const Point_summary& summary)
{
    out << "{";
    json_key_fields(out, summary.key);
    out << ",\"runs\":" << summary.runs << ",\"errors\":" << summary.errors
        << ",\"throughput\":";
    json_cdf(out, summary.throughput);
    out << ",\"raw_throughput\":";
    json_cdf(out, summary.raw_throughput);
    out << ",\"delivery_rate\":";
    json_cdf(out, summary.delivery_rate);
    out << ",\"run_mean_ber\":";
    json_cdf(out, summary.run_mean_ber);
    out << ",\"run_mean_overlap\":";
    json_cdf(out, summary.run_mean_overlap);
    out << ",\"totals\":";
    json_metrics(out, summary.totals);
    out << ",\"series\":{";
    bool first_series = true;
    for (const auto& [name, cdf] : summary.series) {
        out << (first_series ? "" : ",") << "\"" << json_escape(name) << "\":";
        json_cdf(out, cdf);
        first_series = false;
    }
    out << "},\"scalars\":";
    json_scalars(out, summary.scalars);
    out << "}";
}

Json_stream_writer::Json_stream_writer(std::ostream& out)
    : out_{out}
{
    out_ << "{\"schema\":\"" << sweep_schema << "\",\"tasks\":[";
}

void Json_stream_writer::add(const Task_result& result)
{
    out_ << (first_ ? "" : ",");
    write_task_json(out_, result);
    first_ = false;
}

void Json_stream_writer::finish(const std::vector<Point_summary>& summaries)
{
    out_ << "],\"points\":[";
    bool first = true;
    for (const Point_summary& summary : summaries) {
        out_ << (first ? "" : ",");
        write_point_json(out_, summary);
        first = false;
    }
    out_ << "]}";
}

Tasks_csv_stream_writer::Tasks_csv_stream_writer(std::ostream& out)
    : out_{out}
{
    write_tasks_csv_header(out_);
}

void Tasks_csv_stream_writer::add(const Task_result& result)
{
    write_task_csv_row(out_, result);
}

void write_tasks_csv(std::ostream& out, const std::vector<Task_result>& results)
{
    Tasks_csv_stream_writer writer{out};
    for (const Task_result& result : results)
        writer.add(result);
}

void write_summary_csv(std::ostream& out, const std::vector<Point_summary>& summaries)
{
    out << "#schema=" << sweep_schema << '\n';
    out << "scenario,scheme,math_profile,snr_db,alice_amplitude,bob_amplitude,"
           "payload_bits,exchanges,detector_threshold_db,interleave_rows,"
           "coherence_block,mean_link_gain,runs,errors,packets_attempted,"
           "packets_delivered,delivery_rate,mean_ber,mean_overlap,throughput_mean,"
           "throughput_p50,throughput_p90,throughput_min,throughput_max\n";
    for (const Point_summary& summary : summaries) {
        const Point_key& key = summary.key;
        const Cdf_stats throughput = stats_of(summary.throughput);
        out << key.scenario << ',' << key.scheme << ','
            << dsp::to_string(key.math_profile) << ',' << fmt_double(key.snr_db) << ','
            << fmt_double(key.alice_amplitude) << ',' << fmt_double(key.bob_amplitude) << ','
            << key.payload_bits << ',' << key.exchanges << ','
            << fmt_double(key.detector_threshold_db) << ',' << key.interleave_rows << ','
            << key.coherence_block << ',' << fmt_double(key.mean_link_gain) << ','
            << summary.runs << ',' << summary.errors << ','
            << summary.totals.packets_attempted << ','
            << summary.totals.packets_delivered << ','
            << fmt_double(summary.totals.delivery_rate()) << ','
            << fmt_double(summary.totals.mean_ber()) << ','
            << fmt_double(summary.totals.mean_overlap()) << ','
            << fmt_double(throughput.mean) << ','
            << fmt_double(throughput.p50) << ',' << fmt_double(throughput.p90) << ','
            << fmt_double(throughput.min) << ',' << fmt_double(throughput.max) << '\n';
    }
}

void write_json(std::ostream& out, const std::vector<Task_result>& results,
                const std::vector<Point_summary>& summaries)
{
    Json_stream_writer writer{out};
    for (const Task_result& result : results)
        writer.add(result);
    writer.finish(summaries);
}

std::string to_json(const std::vector<Task_result>& results,
                    const std::vector<Point_summary>& summaries)
{
    std::ostringstream out;
    write_json(out, results, summaries);
    return out.str();
}

void print_summary_table(std::FILE* out, const std::vector<Point_summary>& summaries)
{
    std::fprintf(out, "%-12s %-12s %8s %6s %13s %10s %12s %10s\n", "scenario", "scheme",
                 "SNR(dB)", "runs", "delivered", "mean BER", "throughput", "overlap");
    for (const Point_summary& summary : summaries) {
        std::fprintf(out, "%-12s %-12s %8.1f %6zu %6zu/%-6zu %10.4f %12.5f %10.2f\n",
                     summary.key.scenario.c_str(), summary.key.scheme.c_str(),
                     summary.key.snr_db, summary.runs, summary.totals.packets_delivered,
                     summary.totals.packets_attempted, summary.totals.mean_ber(),
                     summary.throughput.empty() ? 0.0 : summary.throughput.mean(),
                     summary.totals.mean_overlap());
    }
}

} // namespace anc::engine
