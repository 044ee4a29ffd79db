// Internal factory functions, one per application, plus the micro-kernel
// factory (see registry.cpp).
#pragma once

#include <memory>
#include <string>

#include "workloads/workload.hpp"

namespace csmt::workloads {

std::unique_ptr<Workload> make_swim();
std::unique_ptr<Workload> make_tomcatv();
std::unique_ptr<Workload> make_mgrid();
std::unique_ptr<Workload> make_vpenta();
std::unique_ptr<Workload> make_fmm();
std::unique_ptr<Workload> make_ocean();

/// The micro-kernel named `name` (one of micro_kernel_names()), or nullptr.
std::unique_ptr<Workload> make_micro_kernel(const std::string& name);

}  // namespace csmt::workloads
