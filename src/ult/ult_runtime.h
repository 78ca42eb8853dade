// Runtime facade: FastThreads on either backend, exposed through the
// uniform rt::Runtime interface so the same workloads run on original
// FastThreads (kernel threads) and modified FastThreads (scheduler
// activations).

#ifndef SA_ULT_ULT_RUNTIME_H_
#define SA_ULT_ULT_RUNTIME_H_

#include <memory>
#include <string>

#include "src/rt/runtime.h"
#include "src/ult/fast_threads.h"
#include "src/ult/sa_backend.h"

namespace sa::ult {

enum class BackendKind {
  kKernelThreads,         // original FastThreads
  kSchedulerActivations,  // modified FastThreads (the paper's system)
};

class UltRuntime : public rt::Runtime {
 public:
  UltRuntime(kern::Kernel* kernel, std::string name, BackendKind backend,
             UltConfig config, int priority = 0);
  ~UltRuntime() override;

  int CreateLock(rt::LockKind kind) override { return ft_->CreateLock(kind); }
  int CreateCond() override { return ft_->CreateCond(); }
  int CreateKernelEvent() override { return ft_->CreateKernelEvent(); }
  int Spawn(rt::WorkloadFn fn, std::string thread_name) override;
  void Start() override;

  FastThreads& fast_threads() { return *ft_; }
  // Non-null only on the scheduler-activation backend.
  SaBackend* sa_backend() { return dynamic_cast<SaBackend*>(backend_.get()); }

 private:
  std::unique_ptr<VcpuBackend> backend_;
  std::unique_ptr<FastThreads> ft_;
  bool started_ = false;
};

}  // namespace sa::ult

#endif  // SA_ULT_ULT_RUNTIME_H_
