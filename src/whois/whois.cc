#include "whois/whois.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/strings.h"

namespace smash::whois {

std::string_view field_name(Field f) noexcept {
  switch (f) {
    case Field::kRegistrant: return "registrant";
    case Field::kAddress: return "address";
    case Field::kEmail: return "email";
    case Field::kPhone: return "phone";
    case Field::kNameServers: return "name_servers";
  }
  return "?";
}

const std::string& Record::value(Field f) const {
  switch (f) {
    case Field::kRegistrant: return registrant;
    case Field::kAddress: return address;
    case Field::kEmail: return email;
    case Field::kPhone: return phone;
    case Field::kNameServers: return name_servers;
  }
  throw std::invalid_argument("Record::value: bad field");
}

std::string& Record::value(Field f) {
  return const_cast<std::string&>(static_cast<const Record&>(*this).value(f));
}

void Registry::add(std::string_view domain, Record record) {
  records_[std::string(domain)] = std::move(record);
}

const Record* Registry::find(std::string_view domain) const {
  auto it = records_.find(domain);
  return it == records_.end() ? nullptr : &it->second;
}

void Registry::add_proxy_value(std::string_view value) {
  proxy_values_.insert(std::string(value));
}

bool Registry::is_proxy_value(std::string_view value) const {
  return proxy_values_.contains(value);
}

SimilarityResult Registry::similarity(std::string_view domain_a,
                                      std::string_view domain_b,
                                      int min_shared) const {
  SimilarityResult result;
  const Record* a = find(domain_a);
  const Record* b = find(domain_b);
  if (a == nullptr || b == nullptr) return result;

  for (int i = 0; i < kNumFields; ++i) {
    const auto f = static_cast<Field>(i);
    const std::string& va = a->value(f);
    const std::string& vb = b->value(f);
    if (va.empty() && vb.empty()) continue;
    ++result.union_fields;
    if (!va.empty() && va == vb && !is_proxy_value(va)) ++result.shared_fields;
  }
  if (result.shared_fields >= min_shared && result.union_fields > 0) {
    result.score = static_cast<double>(result.shared_fields) /
                   static_cast<double>(result.union_fields);
  }
  return result;
}

namespace {
std::string_view dash_if_empty(std::string_view s) { return s.empty() ? "-" : s; }
std::string undash(std::string_view s) { return s == "-" ? std::string{} : std::string(s); }
}  // namespace

void Registry::write_tsv(const std::string& file_path) const {
  std::ofstream out(file_path);
  if (!out) throw std::runtime_error("Registry::write_tsv: cannot open " + file_path);
  for (const auto& value : proxy_values_) {
    out << "PROXY\t" << value << '\n';
  }
  for (const auto& [domain, rec] : records_) {
    out << "WHOIS\t" << domain << '\t' << dash_if_empty(rec.registrant) << '\t'
        << dash_if_empty(rec.address) << '\t' << dash_if_empty(rec.email) << '\t'
        << dash_if_empty(rec.phone) << '\t' << dash_if_empty(rec.name_servers)
        << '\n';
  }
}

Registry Registry::read_tsv(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in) throw std::runtime_error("Registry::read_tsv: cannot open " + file_path);
  Registry registry;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = util::split(line, '\t');
    if (fields[0] == "PROXY" && fields.size() == 2) {
      registry.add_proxy_value(fields[1]);
    } else if (fields[0] == "WHOIS" && fields.size() == 7) {
      Record rec;
      rec.registrant = undash(fields[2]);
      rec.address = undash(fields[3]);
      rec.email = undash(fields[4]);
      rec.phone = undash(fields[5]);
      rec.name_servers = undash(fields[6]);
      registry.add(fields[1], std::move(rec));
    } else {
      throw std::runtime_error("Registry::read_tsv: " + file_path + ":" +
                               std::to_string(line_no) + ": malformed record");
    }
  }
  return registry;
}

std::string join_name_servers(std::vector<std::string> servers) {
  std::sort(servers.begin(), servers.end());
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  return util::join(servers, ",");
}

}  // namespace smash::whois
