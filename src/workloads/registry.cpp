#include <algorithm>
#include <charconv>

#include "common/assert.hpp"
#include "workloads/kernels.hpp"
#include "workloads/workload.hpp"

namespace csmt::workloads {
namespace {

std::unique_ptr<Workload> find_workload(const std::string& name) {
  if (name == "swim") return make_swim();
  if (name == "tomcatv") return make_tomcatv();
  if (name == "mgrid") return make_mgrid();
  if (name == "vpenta") return make_vpenta();
  if (name == "fmm") return make_fmm();
  if (name == "ocean") return make_ocean();
  return make_micro_kernel(name);
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"swim", "tomcatv", "mgrid", "vpenta", "fmm", "ocean"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  auto wl = find_workload(name);
  CSMT_ASSERT_MSG(wl != nullptr, "unknown workload name");
  return wl;
}

std::vector<JobShare> split_contexts(const std::string& name,
                                     unsigned contexts, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return std::vector<JobShare>{};
  };
  std::vector<JobShare> jobs;
  std::vector<std::uint64_t> weights;
  std::uint64_t total = 0;
  for (std::size_t begin = 0; begin <= name.size();) {
    const std::size_t end = std::min(name.find('+', begin), name.size());
    const std::string term = name.substr(begin, end - begin);
    const std::size_t star = std::min(term.find('*'), term.size());
    std::uint32_t weight = 1;
    if (star < term.size()) {
      const char* last = term.data() + term.size();
      const auto [ptr, ec] =
          std::from_chars(term.data() + star + 1, last, weight);
      if (ec != std::errc() || ptr != last || weight == 0)
        return fail("'" + term + "' in '" + name +
                    "' needs a whole weight >= 1 after '*'");
    }
    jobs.push_back({term.substr(0, star), 0});
    if (!find_workload(jobs.back().workload))
      return fail("unknown workload '" + jobs.back().workload + "' in '" +
                  name + "'");
    weights.push_back(weight);
    total += weight;
    begin = end + 1;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint64_t share = contexts * weights[j];
    if (share % total != 0 || share == 0)
      return fail(jobs[j].workload + "'s " + std::to_string(weights[j]) +
                  "/" + std::to_string(total) + " share of " +
                  std::to_string(contexts) +
                  " contexts is not a whole, nonzero number of contexts");
    jobs[j].threads = static_cast<unsigned>(share / total);
  }
  return jobs;
}

}  // namespace csmt::workloads
