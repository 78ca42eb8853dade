#include "src/ult/ult_runtime.h"

#include "src/ult/kt_backend.h"

namespace sa::ult {

UltRuntime::UltRuntime(kern::Kernel* kernel, std::string name, BackendKind backend,
                       UltConfig config, int priority)
    : name_(std::move(name)) {
  if (backend == BackendKind::kSchedulerActivations) {
    as_ = kernel->CreateAddressSpace(name_, kern::AsMode::kSchedulerActivations, priority);
    backend_ = std::make_unique<SaBackend>(kernel, as_);
  } else {
    as_ = kernel->CreateAddressSpace(name_, kern::AsMode::kKernelThreads, priority);
    backend_ = std::make_unique<KtBackend>(kernel, as_);
  }
  ft_ = std::make_unique<FastThreads>(kernel, as_, config, backend_.get());
}

UltRuntime::~UltRuntime() = default;

int UltRuntime::Spawn(rt::WorkloadFn fn, std::string thread_name) {
  rt::WorkThread* w = ft_->table().Create(std::move(fn), std::move(thread_name));
  ft_->SpawnThread(w);
  return w->tid();
}

void UltRuntime::Start() {
  SA_CHECK(!started_);
  started_ = true;
  backend_->Start();
}

}  // namespace sa::ult
