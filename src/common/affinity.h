// The host CPUs this process may run on.

#ifndef SA_COMMON_AFFINITY_H_
#define SA_COMMON_AFFINITY_H_

namespace sa::common {

// CPUs in the calling thread's affinity mask (which new threads inherit);
// 1 if the mask cannot be read.  Unlike std::thread::hardware_concurrency(),
// which counts the online CPUs, this sees `taskset` and cgroup cpusets, so
// host-thread sizing and spin-or-sleep choices follow the CPUs actually
// available.
int AffinityCpus();

}  // namespace sa::common

#endif  // SA_COMMON_AFFINITY_H_
