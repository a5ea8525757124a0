// Reverse-mode automatic differentiation.
//
// A Var is a shared handle to a tape Node holding a value tensor, an
// accumulated gradient, the parent edges and a backward closure. Graphs are
// built implicitly by the ops in reffil/autograd/ops.hpp; calling
// backward(root) runs a topological sweep and accumulates dL/dx into every
// node that requires gradients.
//
// The engine is deliberately scalar-loss oriented: backward() requires the
// root to be a single-element tensor (a loss), which is all the training
// stack needs and keeps the seeding rule unambiguous.
//
// Grad mode is per thread. While a NoGradGuard is live on a thread, every
// node that thread builds is a constant: it records no parents and no
// backward closure, so a forward whose gradient is never taken (eval, a
// frozen teacher, a prompt query) keeps no tape and frees each activation as
// soon as its last reader drops it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "reffil/tensor/tensor.hpp"

namespace reffil::autograd {

class Node;
using Var = std::shared_ptr<Node>;

// Defined (and documented) at the bottom of this header.
template <typename Backward>
Var make_node(tensor::Tensor value, std::initializer_list<Var> parents,
              Backward&& backward_fn, const char* op_name = "ag.op",
              std::uint64_t corr = 0);

class Node {
 public:
  Node(tensor::Tensor value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const tensor::Tensor& value() const { return value_; }
  tensor::Tensor& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }

  /// Accumulated gradient; zero tensor of value's shape until backward runs.
  const tensor::Tensor& grad() const { return grad_; }

  /// Reset the gradient to zero (keeps shape). When the stored gradient
  /// already has the right shape the buffer is zero-filled in place — no
  /// allocation — and stays live so the next accumulate_grad adds into it.
  void zero_grad() {
    if (grad_.shape() == value_.shape()) {
      std::fill(grad_.begin(), grad_.end(), 0.0f);
      grad_initialized_ = true;
    } else {
      grad_ = tensor::Tensor(value_.shape());
      grad_initialized_ = false;
    }
  }

  /// Add g into the stored gradient (lazily shaped on first call).
  void accumulate_grad(const tensor::Tensor& g);

  /// True once backward() has swept from this node as its root. A second
  /// backward() on the same root would silently re-seed and re-fire every
  /// closure into already-populated gradients, so backward() throws instead.
  bool swept() const { return swept_; }
  void mark_swept() { swept_ = true; }

  // --- graph wiring (written only by make_node) -------------------------------
  const std::vector<Var>& parents() const { return parents_; }

  /// backward_fn(out_grad) adds this node's contribution into each parent
  /// via parent->accumulate_grad(...). Empty on a node that does not record.
  const std::function<void(const tensor::Tensor&)>& backward_fn() const {
    return backward_fn_;
  }

  /// Profiler identity of the forward op that built this node: a static
  /// string name and the correlation id its OpSpan minted (0 = unprofiled).
  /// The backward sweep emits a bw: span with the same id so the closure's
  /// cost attributes to this op.
  const char* op_name() const { return op_name_; }
  std::uint64_t corr() const { return corr_; }

 private:
  template <typename Backward>
  friend Var make_node(tensor::Tensor value, std::initializer_list<Var> parents,
                       Backward&& backward_fn, const char* op_name,
                       std::uint64_t corr);

  tensor::Tensor value_;
  tensor::Tensor grad_;  // empty-shape scalar until first accumulation
  bool grad_initialized_ = false;
  bool swept_ = false;
  bool requires_grad_;
  std::vector<Var> parents_;
  std::function<void(const tensor::Tensor&)> backward_fn_;
  const char* op_name_ = "ag.op";
  std::uint64_t corr_ = 0;
};

/// Wrap a tensor as a graph leaf.
Var constant(tensor::Tensor value);

/// Wrap a tensor as a trainable leaf (requires_grad = true).
Var parameter(tensor::Tensor value);

/// Run reverse-mode accumulation from a scalar root. Gradients accumulate —
/// call zero_grad on parameters between steps (the optimizer does this).
/// Throws util::Error if called twice on the same root: the second sweep
/// would re-seed the root with ones and double-accumulate every gradient.
/// Also throws while a NoGradGuard is live on the calling thread: a train
/// step taken there would otherwise sweep a constant root and do nothing.
/// Outside a guard, a root that does not require grad is a no-op.
void backward(const Var& root);

/// True unless a NoGradGuard is live on the calling thread.
bool grad_enabled();

/// RAII grad mode, like torch.no_grad: while alive, nodes built on this
/// thread record nothing. Guards nest; each restores the mode it found, also
/// when it is left by an exception. Other threads are unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// True when a node over `parents` records its parents and backward closure:
/// grad mode is on and some parent requires grad. Ops with forward state
/// that only backward reads skip that state when this is false.
inline bool records(std::initializer_list<Var> parents) {
  if (!grad_enabled()) return false;
  for (const Var& p : parents) {
    if (p->requires_grad()) return true;
  }
  return false;
}

/// The one node builder used by ops: an interior node whose requires_grad is
/// records(parents). Only a recording node copies the parents and wraps the
/// closure in a std::function; otherwise both are dropped here. The closure
/// takes (grad) or, when it reads the node's own value, (grad, self).
/// `op_name` must have static storage duration (it is the profiler label for
/// the backward span); `corr` ties the backward span to the forward OpSpan
/// that minted it.
template <typename Backward>
Var make_node(tensor::Tensor value, std::initializer_list<Var> parents,
              Backward&& backward_fn, const char* op_name, std::uint64_t corr) {
  const bool rec = records(parents);
  auto node = std::make_shared<Node>(std::move(value), rec);
  if (rec) {
    node->parents_.assign(parents.begin(), parents.end());
    using Fn = std::decay_t<Backward>;
    if constexpr (std::is_invocable_v<Fn&, const tensor::Tensor&, const Node&>) {
      // The closure reads the node's own value: hand it a raw pointer, since
      // capturing the Var would be an ownership cycle.
      node->backward_fn_ = [fn = Fn(std::forward<Backward>(backward_fn)),
                            self = node.get()](const tensor::Tensor& g) {
        fn(g, *self);
      };
    } else {
      node->backward_fn_ = std::forward<Backward>(backward_fn);
    }
    node->op_name_ = op_name;
    node->corr_ = corr;
  }
  return node;
}

}  // namespace reffil::autograd
