// Finetune baseline: plain FedAvg training on whatever data a client holds.
// No forgetting mitigation whatsoever — the paper's lower anchor.
#pragma once

#include "reffil/cl/method_base.hpp"

namespace reffil::cl {

class FinetuneMethod : public MethodBase {
 public:
  explicit FinetuneMethod(MethodConfig config)
      : MethodBase("Finetune", std::move(config)) {
    init_workers();
  }
};

}  // namespace reffil::cl
