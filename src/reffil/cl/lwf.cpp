#include "reffil/cl/lwf.hpp"

#include "reffil/autograd/ops.hpp"
#include "reffil/tensor/ops.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

LwfMethod::LwfMethod(MethodConfig config, LwfConfig lwf)
    : MethodBase("FedLwF", std::move(config)), lwf_(lwf) {
  init_workers();
  teachers_.resize(config_.parallelism);
}

void LwfMethod::on_task_start(std::size_t task) {
  MethodBase::on_task_start(task);
  if (task > 0) {
    // Snapshot the converged previous-task global model as the teacher.
    teacher_state_ = global_state_;
    have_teacher_ = true;
    for (Teacher& teacher : teachers_) teacher.loaded = false;
  }
}

void LwfMethod::write_broadcast_extras(util::ByteWriter& writer) {
  writer.write_u32(have_teacher_ ? 1 : 0);
  if (have_teacher_) fed::serialize_state(teacher_state_, writer);
}

void LwfMethod::read_broadcast_extras(util::ByteReader& reader, std::size_t slot) {
  Teacher& teacher = teachers_[slot];
  teacher.loaded = false;
  if (reader.read_u32() != 0) {
    const fed::ModelState state = fed::deserialize_state(reader);
    if (!teacher.net) {
      util::Rng rng(config_.seed ^ 0x7EAC4E2ULL);
      teacher.net = std::make_unique<nn::PromptNet>(config_.net, rng);
    }
    teacher.net->load(state);
    teacher.loaded = true;
  }
  MethodBase::read_broadcast_extras(reader, slot);  // checks exhaustion
}

AG::Var LwfMethod::batch_loss(Replica& rep,
                              const std::vector<TaggedSample>& batch,
                              const fed::TrainJob& job, std::size_t slot) {
  AG::Var total;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto out = rep.net.forward(batch[i].sample->image);
    AG::Var loss = AG::cross_entropy_logits(out.logits, {batch[i].sample->label});
    if (teachers_[slot].loaded) {
      // Teacher probabilities are treated as constants; only the student's
      // graph receives gradients, so the teacher forward keeps no tape.
      T::Tensor teacher_probs;
      {
        const AG::NoGradGuard no_grad;
        const auto teacher_out =
            teachers_[slot].net->forward(batch[i].sample->image);
        teacher_probs = T::softmax_rows(T::mul_scalar(
            teacher_out.logits->value(), 1.0f / lwf_.temperature));
      }
      loss = AG::add(loss, AG::mul_scalar(AG::distillation_loss(
                                              out.logits, teacher_probs,
                                              lwf_.temperature),
                                          lwf_.distill_weight));
    }
    total = (i == 0) ? loss : AG::add(total, loss);
  }
  (void)job;
  return AG::mul_scalar(total, 1.0f / static_cast<float>(batch.size()));
}

}  // namespace reffil::cl
