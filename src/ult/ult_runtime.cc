#include "src/ult/ult_runtime.h"

#include "src/ult/kt_backend.h"

namespace sa::ult {

UltRuntime::UltRuntime(kern::Kernel* kernel, std::string name, BackendKind backend,
                       UltConfig config, int priority)
    : rt::Runtime(kernel, std::move(name),
                  backend == BackendKind::kSchedulerActivations
                      ? kern::AsMode::kSchedulerActivations
                      : kern::AsMode::kKernelThreads,
                  priority) {
  if (backend == BackendKind::kSchedulerActivations) {
    backend_ = std::make_unique<SaBackend>(kernel, address_space());
  } else {
    backend_ = std::make_unique<KtBackend>(kernel, address_space());
  }
  ft_ = std::make_unique<FastThreads>(kernel, address_space(), config, backend_.get(),
                                      threads());
}

UltRuntime::~UltRuntime() = default;

int UltRuntime::Spawn(rt::WorkloadFn fn, std::string thread_name) {
  rt::WorkThread* w = threads().Create(std::move(fn), std::move(thread_name));
  ft_->SpawnThread(w);
  return w->tid();
}

void UltRuntime::Start() {
  SA_CHECK(!started_);
  started_ = true;
  backend_->Start();
}

}  // namespace sa::ult
