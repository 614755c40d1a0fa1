#include "bench_common.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace smash::bench {

const synth::Dataset& dataset(const std::string& preset) {
  static std::map<std::string, synth::Dataset> cache;
  auto it = cache.find(preset);
  if (it != cache.end()) return it->second;

  synth::WorldConfig config;
  if (preset == "2011day") config = synth::data2011day();
  else if (preset == "2012day") config = synth::data2012day();
  else if (preset == "2012week") config = synth::data2012week();
  else throw std::invalid_argument("unknown preset: " + preset);

  return cache.emplace(preset, synth::generate_world(config)).first->second;
}

core::SmashResult run_at_threshold(const synth::Dataset& ds, double thresh) {
  const core::SmashPipeline pipeline(core::SmashConfig{}.with_threshold(thresh));
  return pipeline.run(ds.trace, ds.whois);
}

namespace {

struct SweepCell {
  core::CampaignCounts campaigns;
  core::ServerCounts servers;
};

std::vector<SweepCell> sweep(const std::string& preset, bool single_client) {
  const auto& ds = dataset(preset);
  const core::Evaluator evaluator(ds.trace, ds.signatures, ds.blacklist, ds.truth);
  std::vector<SweepCell> cells;
  for (const double thresh : kThresholds) {
    const auto result = run_at_threshold(ds, thresh);
    const auto eval = evaluator.evaluate(result, single_client);
    cells.push_back({eval.campaign_counts, eval.server_counts});
  }
  return cells;
}

std::vector<std::string> header_for(const std::vector<std::string>& presets) {
  std::vector<std::string> header{"Infer Thresh."};
  for (const auto& preset : presets) {
    for (const double thresh : kThresholds) {
      header.push_back(preset + " " + util::format_fixed(thresh, 1));
    }
  }
  return header;
}

}  // namespace

util::Table campaign_sweep_table(const std::string& title,
                                 const std::vector<std::string>& presets,
                                 bool single_client) {
  std::vector<std::vector<SweepCell>> columns;
  for (const auto& preset : presets) columns.push_back(sweep(preset, single_client));

  util::Table table(title);
  table.set_header(header_for(presets));
  const auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& column : columns) {
      for (const auto& cell : column) {
        cells.push_back(std::to_string(getter(cell.campaigns)));
      }
    }
    table.add_row(std::move(cells));
  };
  row("SMASH", [](const core::CampaignCounts& c) { return c.smash; });
  row("IDS 2012 total", [](const core::CampaignCounts& c) { return c.ids2012_total; });
  row("IDS 2013 total", [](const core::CampaignCounts& c) { return c.ids2013_total; });
  row("IDS 2012 partial", [](const core::CampaignCounts& c) { return c.ids2012_partial; });
  row("IDS 2013 partial", [](const core::CampaignCounts& c) { return c.ids2013_partial; });
  row("Blacklist partial", [](const core::CampaignCounts& c) { return c.blacklist_partial; });
  row("Suspicious", [](const core::CampaignCounts& c) { return c.suspicious; });
  row("False Positives", [](const core::CampaignCounts& c) { return c.false_positives; });
  row("FP (Updated)", [](const core::CampaignCounts& c) { return c.fp_updated; });
  return table;
}

util::Table server_sweep_table(const std::string& title,
                               const std::vector<std::string>& presets,
                               bool single_client) {
  std::vector<std::vector<SweepCell>> columns;
  for (const auto& preset : presets) columns.push_back(sweep(preset, single_client));

  util::Table table(title);
  table.set_header(header_for(presets));
  const auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const auto& column : columns) {
      for (const auto& cell : column) {
        cells.push_back(std::to_string(getter(cell.servers)));
      }
    }
    table.add_row(std::move(cells));
  };
  row("SMASH", [](const core::ServerCounts& c) { return c.smash; });
  row("IDS 2012", [](const core::ServerCounts& c) { return c.ids2012; });
  row("IDS 2013", [](const core::ServerCounts& c) { return c.ids2013; });
  row("Blacklist", [](const core::ServerCounts& c) { return c.blacklist; });
  row("New Servers", [](const core::ServerCounts& c) { return c.new_servers; });
  row("Suspicious", [](const core::ServerCounts& c) { return c.suspicious; });
  row("False Positives", [](const core::ServerCounts& c) { return c.false_positives; });
  row("FP (Updated)", [](const core::ServerCounts& c) { return c.fp_updated; });
  return table;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  out += os.str();
}

}  // namespace

void JsonReporter::add(const std::string& name, double ms,
                       std::map<std::string, double> counters) {
  entries_.push_back({name, ms, std::move(counters)});
}

std::string JsonReporter::to_json() const {
  std::string out = "{\n  \"benchmark\": ";
  append_json_string(out, benchmark_set_);
  out += ",\n  \"unit\": \"ms\",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& entry = entries_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, entry.name);
    out += ", \"ms\": ";
    append_json_number(out, entry.ms);
    for (const auto& [key, value] : entry.counters) {
      out += ", ";
      append_json_string(out, key);
      out += ": ";
      append_json_number(out, value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool JsonReporter::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "JsonReporter: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  file << to_json();
  return static_cast<bool>(file);
}

OperatingPoint run_operating_point(const synth::Dataset& ds) {
  const core::SmashPipeline pipeline{core::SmashConfig{}};  // 0.8 / 1.0
  OperatingPoint op{pipeline.run(ds.trace, ds.whois), {}, {}};
  const core::Evaluator evaluator(ds.trace, ds.signatures, ds.blacklist, ds.truth);
  op.multi = evaluator.evaluate(op.result, false);
  op.single = evaluator.evaluate(op.result, true);
  return op;
}

}  // namespace smash::bench
