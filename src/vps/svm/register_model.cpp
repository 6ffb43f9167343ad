#include "vps/svm/register_model.hpp"

#include <cstdio>
#include <source_location>

namespace vps::svm {

using support::ensure;

namespace {

/// Formats the failed access only when it fails; bus_read/bus_write run on
/// every register access.
[[noreturn, gnu::cold, gnu::noinline]] void throw_bus_error(
    const char* what, std::uint64_t address,
    std::source_location loc = std::source_location::current()) {
  char message[64];
  std::snprintf(message, sizeof message, "RegisterModel: bus error %s 0x%llx", what,
                static_cast<unsigned long long>(address));
  support::throw_invariant(message, loc);
}

}  // namespace

void RegisterModel::add_register(const std::string& reg_name, std::uint64_t address,
                                 std::uint32_t reset_value) {
  ensure(!registers_.contains(reg_name), "RegisterModel: duplicate register " + reg_name);
  Reg r;
  r.address = address;
  r.reset_value = reset_value;
  r.mirror = reset_value;
  registers_.emplace(reg_name, std::move(r));
}

void RegisterModel::add_field(const std::string& reg_name, const std::string& field_name,
                              unsigned lsb, unsigned width) {
  Reg& r = reg(reg_name);
  ensure(width >= 1 && lsb + width <= 32, "RegisterModel: field geometry out of range");
  ensure(!r.fields.contains(field_name), "RegisterModel: duplicate field " + field_name);
  const Field f{field_name, lsb, width};
  for (const auto& [other_name, other] : r.fields) {
    ensure((field_mask(f) & field_mask(other)) == 0,
           "RegisterModel: field " + field_name + " overlaps " + other_name);
  }
  r.fields.emplace(field_name, f);
}

RegisterModel::Reg& RegisterModel::reg(const std::string& reg_name) {
  const auto it = registers_.find(reg_name);
  ensure(it != registers_.end(), "RegisterModel: unknown register " + reg_name);
  return it->second;
}

const RegisterModel::Reg& RegisterModel::reg(const std::string& reg_name) const {
  const auto it = registers_.find(reg_name);
  ensure(it != registers_.end(), "RegisterModel: unknown register " + reg_name);
  return it->second;
}

std::uint32_t RegisterModel::bus_read(std::uint64_t address) {
  ensure(socket_ != nullptr, "RegisterModel: no bus socket bound");
  tlm::GenericPayload p(tlm::Command::kRead, address, 4);
  sim::Time delay = sim::Time::zero();
  socket_->b_transport(p, delay);
  if (!p.ok()) [[unlikely]] throw_bus_error("reading", address);
  return static_cast<std::uint32_t>(p.value_le());
}

void RegisterModel::bus_write(std::uint64_t address, std::uint32_t value) {
  ensure(socket_ != nullptr, "RegisterModel: no bus socket bound");
  tlm::GenericPayload p(tlm::Command::kWrite, address, 4);
  p.set_value_le(value);
  sim::Time delay = sim::Time::zero();
  socket_->b_transport(p, delay);
  if (!p.ok()) [[unlikely]] throw_bus_error("writing", address);
}

std::uint32_t RegisterModel::read(const std::string& reg_name) {
  Reg& r = reg(reg_name);
  const std::uint32_t value = bus_read(r.address);
  r.mirror = value;
  ++r.accesses;
  return value;
}

void RegisterModel::write(const std::string& reg_name, std::uint32_t value) {
  Reg& r = reg(reg_name);
  bus_write(r.address, value);
  r.mirror = value;
  ++r.accesses;
}

std::uint32_t RegisterModel::read_field(const std::string& reg_name,
                                        const std::string& field_name) {
  const std::uint32_t value = read(reg_name);
  const Reg& r = reg(reg_name);
  const auto it = r.fields.find(field_name);
  ensure(it != r.fields.end(), "RegisterModel: unknown field " + field_name);
  return (value & field_mask(it->second)) >> it->second.lsb;
}

void RegisterModel::write_field(const std::string& reg_name, const std::string& field_name,
                                std::uint32_t value) {
  Reg& r = reg(reg_name);
  const auto it = r.fields.find(field_name);
  ensure(it != r.fields.end(), "RegisterModel: unknown field " + field_name);
  const std::uint32_t mask = field_mask(it->second);
  const std::uint32_t current = bus_read(r.address);
  const std::uint32_t next = (current & ~mask) | ((value << it->second.lsb) & mask);
  bus_write(r.address, next);
  r.mirror = next;
  ++r.accesses;
}

std::uint32_t RegisterModel::mirrored(const std::string& reg_name) const {
  return reg(reg_name).mirror;
}

bool RegisterModel::check(const std::string& reg_name) {
  Reg& r = reg(reg_name);
  const std::uint32_t hw = bus_read(r.address);
  ++r.accesses;
  return hw == r.mirror;
}

void RegisterModel::reset_mirrors() {
  for (auto& [name, r] : registers_) r.mirror = r.reset_value;
}

std::uint64_t RegisterModel::accesses(const std::string& reg_name) const {
  return reg(reg_name).accesses;
}

double RegisterModel::access_coverage() const {
  if (registers_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& [name, r] : registers_) hit += r.accesses > 0;
  return static_cast<double>(hit) / static_cast<double>(registers_.size());
}

std::uint64_t RegisterModel::address_of(const std::string& reg_name) const {
  return reg(reg_name).address;
}

}  // namespace vps::svm
