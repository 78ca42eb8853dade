#include "src/rt/runtime.h"

#include <utility>

#include "src/kern/kernel.h"

namespace sa::rt {

Runtime::Runtime(kern::Kernel* kernel, std::string name, kern::AsMode mode, int priority)
    : kernel_(kernel),
      name_(std::move(name)),
      as_(kernel->CreateAddressSpace(name_, mode, priority)) {}

Runtime::~Runtime() = default;

}  // namespace sa::rt
