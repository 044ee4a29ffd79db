// Workload interface: the six parallel applications of §4 (swim, tomcatv,
// mgrid, vpenta, fmm, ocean), rebuilt as SPMD kernels in the csmt ISA.
//
// Each workload lays out its arrays in the shared functional memory, writes
// an argument block (whose address every thread receives in r3), and emits
// one SPMD program that all threads execute; behaviour diverges on the tid
// register exactly the way Polaris-parallelized Fortran or ANL-macro SPLASH
// code diverges on the processor id. Every workload also carries a host
// reference implementation so functional correctness is testable: after a
// simulated run, validate() recomputes the result on the host and compares
// checksums.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mem/paged_memory.hpp"

namespace csmt::workloads {

struct WorkloadBuild {
  isa::Program program;
  Addr args_base = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Lays out data in `memory` and emits the SPMD program for `nthreads`
  /// threads at problem scale `scale` (1 = the bench default; tests use
  /// smaller scales). Deterministic: same inputs, same program and data.
  virtual WorkloadBuild build(mem::PagedMemory& memory, unsigned nthreads,
                              unsigned scale) const = 0;

  /// Recomputes the kernel on the host and checks the simulated result in
  /// `memory` (same `nthreads`/`scale` as the matching build()). Returns
  /// true when the simulation produced the correct values.
  virtual bool validate(const mem::PagedMemory& memory, const WorkloadBuild& b,
                        unsigned nthreads, unsigned scale) const = 0;
};

/// Names of the paper's six applications, in the paper's figure order.
std::vector<std::string> workload_names();

/// Names of the micro-kernels (micro.cpp): Table 3's pointer-chase rings,
/// ablation A4's barrier kernel in both sync styles, and the `chase` and
/// `cluster-idle` simulator-speed probes.
std::vector<std::string> micro_kernel_names();

/// Factory; aborts on unknown names. Accepts any name from workload_names()
/// or micro_kernel_names().
std::unique_ptr<Workload> make_workload(const std::string& name);

/// One job of a workload name and its share of the machine.
struct JobShare {
  std::string workload;  ///< a registered workload
  unsigned threads = 0;  ///< hardware contexts the job runs on
};

/// Splits `contexts` hardware contexts among the jobs a workload name
/// describes. A registered name ("swim") is one job on every context. A
/// multiprogrammed mix joins registered names with '+', each optionally
/// weighted "*k" with k >= 1 ("swim+ocean", "tomcatv*2+mgrid*6"); a job
/// gets contexts * k / (sum of the weights). Returns the jobs in name
/// order. When the name is malformed, names an unknown workload, or gives
/// a job a share that is not a whole, nonzero number of contexts, returns
/// no jobs and says why in `*error`.
std::vector<JobShare> split_contexts(const std::string& name,
                                     unsigned contexts, std::string* error);

}  // namespace csmt::workloads
