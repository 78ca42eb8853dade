#include "src/common/affinity.h"

#include <sched.h>

namespace sa::common {

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

}  // namespace sa::common
