// Table 2: the architecture configurations. Prints every preset and checks
// the table's invariants: each chip provides 8 hardware threads (except the
// FA processors with fewer contexts), an 8-wide issue budget, a 128-entry
// window chip-wide (IQ, ROB and renaming registers alike), and the FA/SMT
// pairing (SMT4~FA4, SMT2~FA2, SMT1~FA1 in per-cluster resources).
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "core/arch_config.hpp"

int main() {
  using namespace csmt;
  std::printf("== Table 2: architectures evaluated ==\n");
  AsciiTable t;
  t.header({"type", "clusters x width", "threads/cluster [chip]",
            "FUs int/ldst/fp per cluster [chip]",
            "IQ&ROB per cluster [chip]", "rename int/fp per cluster [chip]"});
  bool ok = true;
  for (const core::ArchKind k :
       {core::ArchKind::kFa8, core::ArchKind::kFa4, core::ArchKind::kFa2,
        core::ArchKind::kFa1, core::ArchKind::kSmt4, core::ArchKind::kSmt2,
        core::ArchKind::kSmt1}) {
    const core::ArchConfig c = core::arch_preset(k);
    const auto& cl = c.cluster;
    const std::string window = std::to_string(cl.window);
    const std::string chip_window = std::to_string(c.clusters * cl.window);
    t.row({c.name,
           std::to_string(c.clusters) + " x " + std::to_string(cl.width),
           std::to_string(cl.threads) + " [" +
               std::to_string(c.threads_per_chip()) + "]",
           std::to_string(cl.int_units) + "/" + std::to_string(cl.ldst_units) +
               "/" + std::to_string(cl.fp_units) + " [" +
               std::to_string(c.clusters * cl.int_units) + "/" +
               std::to_string(c.clusters * cl.ldst_units) + "/" +
               std::to_string(c.clusters * cl.fp_units) + "]",
           window + " [" + chip_window + "]",
           window + "/" + window + " [" + chip_window + "/" + chip_window +
               "]"});
    // Table 2 invariants.
    ok = ok && c.issue_width_per_chip() == 8;
    ok = ok && c.clusters * cl.window == 128;
    if (c.name != "FA1" && c.name != "SMT1") {
      ok = ok && c.clusters * cl.int_units == 8;
    } else {
      // The 8-issue single cluster has the 6/4/4 mix of the paper.
      ok = ok && cl.int_units == 6 && cl.ldst_units == 4 && cl.fp_units == 4;
    }
  }
  std::printf("%s\n%s\n", t.render().c_str(),
              ok ? "All Table 2 invariants hold."
                 : "Table 2 invariant VIOLATED!");
  return ok ? 0 : 1;
}
