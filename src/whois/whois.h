// Whois substrate: registration records, a registry keyed by 2LD, and the
// field-overlap similarity of paper §III-B2 ("Whois Similarity").
//
// The paper compares five registration fields — registrant name, home
// address, email, phone, and name servers — and scores two domains by
//   shared fields / union of fields,
// requiring at least two shared fields, and ignoring fields whose value is
// a domain-privacy proxy (otherwise every proxied domain would associate
// with every other).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace smash::whois {

enum class Field : std::uint8_t {
  kRegistrant = 0,
  kAddress = 1,
  kEmail = 2,
  kPhone = 3,
  kNameServers = 4,
};
inline constexpr int kNumFields = 5;

std::string_view field_name(Field f) noexcept;

struct Record {
  std::string registrant;
  std::string address;
  std::string email;
  std::string phone;
  // Joined, order-normalized name-server list (e.g. "ns1.x.com,ns2.x.com");
  // compared as a single field like the paper's Fig. 5 examples.
  std::string name_servers;

  const std::string& value(Field f) const;
  std::string& value(Field f);
};

struct SimilarityResult {
  int shared_fields = 0;  // non-empty, non-proxy fields with equal values
  int union_fields = 0;   // fields non-empty in at least one record
  double score = 0.0;     // shared/union if shared >= min_shared, else 0
};

class Registry {
 public:
  // Registers `domain` (an effective 2LD). Overwrites any prior record.
  void add(std::string_view domain, Record record);

  const Record* find(std::string_view domain) const;

  // Declare a value as a privacy-proxy value: matches on it never count.
  void add_proxy_value(std::string_view value);

  bool is_proxy_value(std::string_view value) const;

  // Similarity per the paper: shared/union over the five fields, with a
  // minimum-shared-fields gate (default 2) and proxy values excluded.
  SimilarityResult similarity(std::string_view domain_a,
                              std::string_view domain_b,
                              int min_shared = 2) const;

  std::size_t size() const noexcept { return records_.size(); }

  const util::StringMap<Record>& records() const noexcept {
    return records_;
  }

  // Tab-separated persistence, one record per line:
  //   WHOIS <domain> <registrant> <address> <email> <phone> <name_servers>
  //   PROXY <value>
  // Empty fields are stored as "-". Values must not contain tabs.
  void write_tsv(const std::string& file_path) const;
  static Registry read_tsv(const std::string& file_path);

 private:
  util::StringMap<Record> records_;
  util::StringSet proxy_values_;
};

// Normalize a name-server list into the canonical joined form.
std::string join_name_servers(std::vector<std::string> servers);

}  // namespace smash::whois
