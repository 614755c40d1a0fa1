// Domain-name utilities: effective second-level-domain (2LD) extraction.
//
// SMASH's preprocessing (paper §III-A) aggregates hostnames that share a
// second-level domain: a.xyz.com and b.xyz.com both become xyz.com, all
// Facebook CDN hosts become fbcdn.net, all EC2 hosts become amazonaws.com.
// Multi-label public suffixes (co.uk, cz.cc, ...) must be treated as the
// "TLD" so that 4k0t111m.cz.cc aggregates to itself rather than to cz.cc —
// the Zeus case study (Table X) depends on this.
#pragma once

#include <string>
#include <string_view>

namespace smash::dns {

// True if `host` looks like an IPv4 dotted quad. IP-literal "hostnames" are
// never aggregated (the paper treats IPs as servers in their own right).
bool is_ipv4_literal(std::string_view host) noexcept;

// True if `suffix` is in the embedded public-suffix subset (lower-case,
// no leading dot), e.g. "com", "co.uk", "cz.cc", "dyndns.org".
bool is_public_suffix(std::string_view suffix) noexcept;

// Effective 2LD: the public suffix plus one label.
//   a.xyz.com      -> xyz.com
//   cdn.fbcdn.net  -> fbcdn.net
//   4k0t111m.cz.cc -> 4k0t111m.cz.cc
//   10.1.2.3       -> 10.1.2.3 (unchanged)
// A bare public suffix or single label is returned unchanged. Empty labels
// at the front of the kept part drop out with their dots (x..com -> com).
//
// The result is always a suffix of `host`, returned as a view into it: no
// allocation, so preprocessing can map every hostname and referrer of a
// day without touching the heap.
std::string_view effective_2ld_view(std::string_view host) noexcept;

// effective_2ld_view as an owned string.
std::string effective_2ld(std::string_view host);

// Basic well-formedness: non-empty labels of [a-z0-9-], no leading/trailing
// dots. (Case-insensitive; callers should lower-case first.)
bool is_valid_hostname(std::string_view host) noexcept;

}  // namespace smash::dns
