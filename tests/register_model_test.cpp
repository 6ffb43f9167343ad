// RAL-lite tests: declaration validation, front-door access over a real
// TLM bus, field read-modify-write, mirror checking, access coverage —
// exercised against the actual EcuPlatform peripherals (the timer and the
// watchdog), proving the register map documentation is executable.

#include <gtest/gtest.h>

#include "vps/ecu/platform.hpp"
#include "vps/svm/register_model.hpp"

namespace {

using namespace vps;
using namespace vps::sim;
using svm::RegisterModel;

struct RalFixture {
  Kernel kernel;
  ecu::EcuPlatform ecu{kernel, "dut"};
  tlm::InitiatorSocket tb{"tb"};
  RegisterModel ral{"dut_regs"};

  RalFixture() {
    tb.bind(ecu.bus().target_socket());
    ral.bind(tb);
    using M = ecu::EcuMemoryMap;
    ral.add_register("TIMER_CTRL", M::kTimerBase + 0x00);
    ral.add_field("TIMER_CTRL", "ENABLE", 0, 1);
    ral.add_field("TIMER_CTRL", "PERIODIC", 1, 1);
    ral.add_register("TIMER_PERIOD_US", M::kTimerBase + 0x04, 1000);
    ral.add_register("TIMER_STATUS", M::kTimerBase + 0x08);
    ral.add_register("TIMER_EXPIRIES", M::kTimerBase + 0x0C);
    ral.add_register("WDG_CTRL", M::kWatchdogBase + 0x00);
    ral.add_register("WDG_PERIOD_US", M::kWatchdogBase + 0x04, 10000);
    ral.add_register("GPIO_OUT", M::kGpioBase + 0x00);
  }
};

TEST(RegisterModelTest, DeclarationValidation) {
  RegisterModel m("m");
  m.add_register("A", 0x0);
  EXPECT_THROW(m.add_register("A", 0x4), support::InvariantError);
  m.add_field("A", "LOW", 0, 4);
  EXPECT_THROW(m.add_field("A", "LOW", 8, 2), support::InvariantError);     // dup name
  EXPECT_THROW(m.add_field("A", "OVER", 2, 4), support::InvariantError);    // overlap
  EXPECT_THROW(m.add_field("A", "WIDE", 30, 4), support::InvariantError);   // out of reg
  EXPECT_THROW((void)m.read("NOPE"), support::InvariantError);              // unknown reg
  EXPECT_THROW((void)m.read("A"), support::InvariantError);                 // no socket
}

TEST(RegisterModelTest, FrontDoorReadWriteAgainstHardware) {
  RalFixture fx;
  EXPECT_EQ(fx.ral.read("TIMER_PERIOD_US"), 1000u);  // hardware reset value
  fx.ral.write("TIMER_PERIOD_US", 250);
  EXPECT_EQ(fx.ral.read("TIMER_PERIOD_US"), 250u);
  EXPECT_EQ(fx.ral.mirrored("TIMER_PERIOD_US"), 250u);
  EXPECT_TRUE(fx.ral.check("TIMER_PERIOD_US"));
}

TEST(RegisterModelTest, FieldReadModifyWrite) {
  RalFixture fx;
  fx.ral.write_field("TIMER_CTRL", "PERIODIC", 1);
  EXPECT_EQ(fx.ral.read("TIMER_CTRL"), 2u);  // ENABLE untouched
  fx.ral.write_field("TIMER_CTRL", "ENABLE", 1);
  EXPECT_EQ(fx.ral.read("TIMER_CTRL"), 3u);
  EXPECT_EQ(fx.ral.read_field("TIMER_CTRL", "PERIODIC"), 1u);
  fx.ral.write_field("TIMER_CTRL", "PERIODIC", 0);
  EXPECT_EQ(fx.ral.read_field("TIMER_CTRL", "ENABLE"), 1u);
}

TEST(RegisterModelTest, DrivesRealTimerBehaviour) {
  RalFixture fx;
  fx.ral.write("TIMER_PERIOD_US", 100);
  fx.ral.write("TIMER_CTRL", 3);  // enable | periodic
  fx.kernel.run(Time::ms(1));
  EXPECT_GE(fx.ral.read("TIMER_EXPIRIES"), 9u);
  EXPECT_EQ(fx.ral.read_field("TIMER_CTRL", "ENABLE"), 1u);
}

TEST(RegisterModelTest, MirrorDetectsHardwareSideChanges) {
  RalFixture fx;
  (void)fx.ral.read("TIMER_EXPIRIES");  // mirror = 0
  fx.ral.write("TIMER_PERIOD_US", 100);
  fx.ral.write("TIMER_CTRL", 3);
  fx.kernel.run(Time::ms(1));
  // Hardware advanced behind the mirror's back: check() must flag it.
  EXPECT_FALSE(fx.ral.check("TIMER_EXPIRIES"));
  // GPIO_OUT is software-owned: the mirror stays valid.
  fx.ral.write("GPIO_OUT", 0xAB);
  fx.kernel.run(fx.kernel.now() + Time::ms(1));
  EXPECT_TRUE(fx.ral.check("GPIO_OUT"));
  EXPECT_EQ(fx.ecu.gpio().out().read(), 0xABu);
}

TEST(RegisterModelTest, AccessCoverageTracksTouchedRegisters) {
  RalFixture fx;
  EXPECT_EQ(fx.ral.access_coverage(), 0.0);
  (void)fx.ral.read("TIMER_CTRL");
  (void)fx.ral.read("WDG_CTRL");
  EXPECT_NEAR(fx.ral.access_coverage(), 2.0 / 7.0, 1e-12);
  EXPECT_EQ(fx.ral.accesses("TIMER_CTRL"), 1u);
  EXPECT_EQ(fx.ral.accesses("GPIO_OUT"), 0u);
}

TEST(RegisterModelTest, BusErrorSurfacesAsException) {
  RalFixture fx;
  fx.ral.add_register("BOGUS", 0x70000000);
  EXPECT_THROW((void)fx.ral.read("BOGUS"), support::InvariantError);
}

TEST(RegisterModelTest, BusErrorMessageNamesTheAddressInHex) {
  RalFixture fx;
  fx.ral.add_register("BOGUS", 0x7000ABC0);
  auto message_of = [](auto&& access) -> std::string {
    try {
      access();
    } catch (const support::InvariantError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string read = message_of([&] { (void)fx.ral.read("BOGUS"); });
  EXPECT_NE(read.find("RegisterModel: bus error reading 0x7000abc0"), std::string::npos) << read;
  const std::string write = message_of([&] { fx.ral.write("BOGUS", 1); });
  EXPECT_NE(write.find("RegisterModel: bus error writing 0x7000abc0"), std::string::npos) << write;
}

}  // namespace
