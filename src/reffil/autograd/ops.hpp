// Differentiable operations over autograd Vars.
//
// Each op computes its value eagerly with the tensor kernels and registers a
// backward closure that propagates exact gradients to its parents. Shapes
// are validated at op-construction time so graph bugs surface where they are
// made, not inside backward().
#pragma once

#include <cstddef>
#include <vector>

#include "reffil/autograd/variable.hpp"

namespace reffil::autograd {

// ---- arithmetic --------------------------------------------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ---- nonlinearities -----------------------------------------------------------
Var relu(const Var& a);
Var tanh(const Var& a);
Var sigmoid(const Var& a);
Var exp(const Var& a);
/// Natural log; input must be strictly positive.
Var log(const Var& a);

// ---- linear algebra ------------------------------------------------------------
/// [m,k] x [k,n] -> [m,n].
Var matmul(const Var& a, const Var& b);
/// Fused a·bᵀ: [m,k] x [n,k] -> [m,n]. Equivalent to
/// matmul(a, transpose(b)) but neither the forward nor the backward pass
/// materializes a transposed copy (attention uses this for q·kᵀ scores).
Var matmul_nt(const Var& a, const Var& b);
/// 2-D transpose.
Var transpose(const Var& a);
/// X [m,n] + broadcast row vector b [n].
Var add_rowvec(const Var& x, const Var& b);
/// Row-wise FiLM affine: out[i,j] = alpha[i] * (x[i,j] + lambda[i]).
/// This is Eq. (1)'s linear-transformation layer LT.
Var rowwise_affine(const Var& x, const Var& alpha, const Var& lambda);

// ---- structure ------------------------------------------------------------------
Var reshape(const Var& a, tensor::Shape shape);
/// Stack two 2-D tensors vertically (same column count).
Var concat_rows(const Var& a, const Var& b);
/// Concatenate two 2-D tensors horizontally (same row count).
Var concat_cols(const Var& a, const Var& b);
/// Rows [begin, end) of a 2-D tensor.
Var slice_rows(const Var& a, std::size_t begin, std::size_t end);
/// Columns [begin, end) of a 2-D tensor.
Var slice_cols(const Var& a, std::size_t begin, std::size_t end);
/// Row `index` of a 2-D tensor as a [1,n] matrix (differentiable gather —
/// used for embedding lookup).
Var select_row(const Var& table, std::size_t index);

// ---- reductions -------------------------------------------------------------------
Var sum_all(const Var& a);
Var mean_all(const Var& a);
/// Mean over axis 0 of a 2-D tensor: [m,n] -> [1,n].
Var mean_rows(const Var& a);

// ---- normalization / attention ------------------------------------------------------
/// Row-wise layer normalization with learned gain/bias (both [n]).
Var layer_norm(const Var& x, const Var& gain, const Var& bias, float eps = 1e-5f);
/// Numerically-stable row-wise softmax of a 2-D tensor.
Var softmax_rows(const Var& logits);

// ---- losses ----------------------------------------------------------------------------
/// Mean cross-entropy of row-logits vs integer labels (Eq. 9 / Eq. 10 use
/// this with global- and local-prompted logits respectively).
Var cross_entropy_logits(const Var& logits, const std::vector<std::size_t>& labels);
/// Mean KL(teacher_probs || softmax(logits / T)) distillation term used by
/// FedLwF; teacher probabilities are constants.
Var distillation_loss(const Var& student_logits, const tensor::Tensor& teacher_probs,
                      float temperature);

// ---- geometry ----------------------------------------------------------------------------
/// Differentiable cosine similarity of two equally-sized tensors (flattened),
/// returning a scalar Var. Used by the DPCL loss (Eq. 6).
Var cosine_similarity(const Var& a, const Var& b);

// ---- convolution ---------------------------------------------------------------------------
/// Single-sample 2-D convolution.
///   input  [Cin, H, W]
///   weight [Cout, Cin*kh*kw]   (pre-flattened filter bank)
///   bias   [Cout]
/// Returns [Cout, Hout, Wout] with Hout = (H + 2*pad - kh)/stride + 1.
Var conv2d(const Var& input, const Var& weight, const Var& bias, std::size_t kh,
           std::size_t kw, std::size_t stride, std::size_t pad);

}  // namespace reffil::autograd
