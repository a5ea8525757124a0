#include "reffil/cl/prompt_utils.hpp"

#include <algorithm>
#include <numeric>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"

namespace reffil::cl {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

tensor::Tensor prompt_query(const nn::PromptNet& net, const tensor::Tensor& image) {
  const AG::NoGradGuard no_grad;  // the query is detached: only its value is used
  const AG::Var tokens = net.tokenize(image);  // [n+1, d], row 0 is [CLS]
  const std::size_t rows = tokens->value().dim(0);
  const T::Tensor patches = T::slice_rows(tokens->value(), 1, rows);
  return T::mean_rows(patches);  // [d]
}

std::vector<std::size_t> top_k_by_cosine(const tensor::Tensor& keys,
                                         const tensor::Tensor& query,
                                         std::size_t k) {
  REFFIL_CHECK_MSG(keys.rank() == 2, "top_k_by_cosine: keys must be [N, d]");
  const std::size_t n = keys.dim(0);
  k = std::min(k, n);
  std::vector<float> sims(n);
  for (std::size_t i = 0; i < n; ++i) {
    sims[i] = T::cosine_similarity(T::row(keys, i), query);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(),
                    [&](std::size_t a, std::size_t b) { return sims[a] > sims[b]; });
  order.resize(k);
  return order;
}

autograd::Var gather_rows(const autograd::Var& table,
                          const std::vector<std::size_t>& indices) {
  REFFIL_CHECK_MSG(!indices.empty(), "gather_rows: empty selection");
  AG::Var out;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const AG::Var row = AG::select_row(table, indices[i]);
    out = (i == 0) ? row : AG::concat_rows(out, row);
  }
  return out;
}

autograd::Var key_pull_loss(const autograd::Var& keys,
                            const std::vector<std::size_t>& indices,
                            const tensor::Tensor& query) {
  const AG::Var query_var = AG::constant(query.reshaped({1, query.numel()}));
  AG::Var loss;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const AG::Var key = AG::select_row(keys, indices[i]);
    const AG::Var term =
        AG::add_scalar(AG::neg(AG::cosine_similarity(key, query_var)), 1.0f);
    loss = (i == 0) ? term : AG::add(loss, term);
  }
  return loss;
}

}  // namespace reffil::cl
