#include "reffil/autograd/variable.hpp"

#include <algorithm>
#include <unordered_set>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::autograd {

void Node::accumulate_grad(const tensor::Tensor& g) {
  if (g.shape() != value_.shape()) {
    throw ShapeError("gradient shape " + tensor::shape_to_string(g.shape()) +
                     " does not match value shape " +
                     tensor::shape_to_string(value_.shape()));
  }
  if (!grad_initialized_) {
    if (grad_.shape() == value_.shape()) {
      // Reuse the existing storage: a plain element copy is
      // bitwise-identical to assigning a fresh copy of g, and allocates
      // nothing.
      std::copy(g.begin(), g.end(), grad_.begin());
    } else {
      grad_ = g;
    }
    grad_initialized_ = true;
  } else {
    tensor::add_inplace(grad_, g);
  }
}

Var constant(tensor::Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var parameter(tensor::Tensor value) {
  auto node = std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
  node->zero_grad();
  return node;
}

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

namespace {
// Iterative post-order DFS producing a topological order (parents before
// children in the returned list, so we sweep it in reverse).
void topo_sort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<const Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents().size()) {
      Node* parent = frame.node->parents()[frame.next_parent++].get();
      if (parent->requires_grad() && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
}
}  // namespace

void backward(const Var& root) {
  REFFIL_CHECK_MSG(root != nullptr, "backward on null Var");
  REFFIL_CHECK_MSG(root->value().numel() == 1,
                   "backward requires a scalar (single-element) root");
  if (!grad_enabled()) {
    throw Error(
        "backward() called while a NoGradGuard is active on this thread: the "
        "guarded forward recorded no tape, so the sweep would do nothing");
  }
  if (!root->requires_grad()) return;
  if (root->swept()) {
    throw Error(
        "backward() called twice on the same root: the second sweep would "
        "re-seed the root with ones and double-accumulate every gradient");
  }
  root->mark_swept();

  std::vector<Node*> order;
  topo_sort(root, order);

  root->accumulate_grad(tensor::ones(root->value().shape()));
  // order is post-order (root last); sweep from the root backwards. Each
  // closure runs under a bw: span carrying the forward op's correlation id,
  // so a trace viewer can pair every backward slice with its forward twin.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn()) {
      obs::prof::Span span(node->op_name(), 0, node->corr(),
                           obs::prof::Kind::kBackward);
      node->backward_fn()(node->grad());
    }
  }
}

}  // namespace reffil::autograd
