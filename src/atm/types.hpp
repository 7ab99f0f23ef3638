// types.hpp — basic ATM vocabulary: VCIs and ATM addresses.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace xunet::atm {

/// Virtual Circuit Identifier.  The paper uses the VCI as "a single index
/// into a table of protocol control blocks"; it is 16 bits on Xunet cells.
using Vci = std::uint16_t;

/// VCIs below this value are reserved for permanent virtual circuits
/// (e.g. the sighost-to-sighost signaling PVC meshes, one pair per sighost
/// shard).
inline constexpr Vci kFirstSwitchedVci = 1024;
/// Largest allocatable VCI (the full 16-bit cell field; control-plane
/// sharding needs the headroom for ≥10^6 live VCs).
inline constexpr Vci kMaxVci = 65535;
/// Sentinel meaning "no VCI".
inline constexpr Vci kInvalidVci = 0;

/// ATM endpoint address.  Xunet used short symbolic names such as "mh.rt"
/// (Murray Hill router); we keep that convention.
struct AtmAddress {
  std::string name;

  [[nodiscard]] bool valid() const noexcept { return !name.empty(); }
  auto operator<=>(const AtmAddress&) const = default;
};

}  // namespace xunet::atm

template <>
struct std::hash<xunet::atm::AtmAddress> {
  std::size_t operator()(const xunet::atm::AtmAddress& a) const noexcept {
    return std::hash<std::string>{}(a.name);
  }
};
