#include "reffil/nn/backbone.hpp"

#include <cmath>

#include "reffil/tensor/ops.hpp"
#include "reffil/util/error.hpp"
#include "reffil/util/prof.hpp"

namespace reffil::nn {

namespace AG = reffil::autograd;
namespace T = reffil::tensor;

ResidualBlock::ResidualBlock(std::size_t channels, util::Rng& rng) {
  conv1_ = std::make_unique<Conv2d>(channels, channels, 3, 1, 1, rng);
  conv2_ = std::make_unique<Conv2d>(channels, channels, 3, 1, 1, rng);
  register_submodule(*conv1_);
  register_submodule(*conv2_);
}

AG::Var ResidualBlock::forward(const AG::Var& x) const {
  const AG::Var h = conv2_->forward(AG::relu(conv1_->forward(x)));
  return AG::relu(AG::add(x, h));
}

ResNetMini::ResNetMini(std::size_t in_channels, util::Rng& rng) {
  stem_ = std::make_unique<Conv2d>(in_channels, 8, 3, 1, 1, rng);
  block1_ = std::make_unique<ResidualBlock>(8, rng);
  down1_ = std::make_unique<Conv2d>(8, 16, 3, 2, 1, rng);
  block2_ = std::make_unique<ResidualBlock>(16, rng);
  down2_ = std::make_unique<Conv2d>(16, kFeatChannels, 3, 2, 1, rng);
  register_submodule(*stem_);
  register_submodule(*block1_);
  register_submodule(*down1_);
  register_submodule(*block2_);
  register_submodule(*down2_);
}

AG::Var ResNetMini::forward(const AG::Var& image) const {
  AG::Var h = AG::relu(stem_->forward(image));   // [8, 16, 16]
  h = block1_->forward(h);                       // [8, 16, 16]
  h = AG::relu(down1_->forward(h));              // [16, 8, 8]
  h = block2_->forward(h);                       // [16, 8, 8]
  h = AG::relu(down2_->forward(h));              // [32, 4, 4]
  return h;
}

PatchEmbed::PatchEmbed(std::size_t channels, std::size_t map_size,
                       std::size_t patch, std::size_t token_dim,
                       std::uint64_t frozen_seed)
    : channels_(channels),
      map_size_(map_size),
      patch_(patch),
      token_dim_(token_dim) {
  REFFIL_CHECK_MSG(patch > 0 && map_size % patch == 0,
                   "PatchEmbed: map size must be divisible by patch");
  const std::size_t per_side = map_size / patch;
  num_tokens_ = per_side * per_side;
  const std::size_t patch_dim = channels * patch * patch;
  util::Rng rng(frozen_seed);
  const float stddev = std::sqrt(1.0f / static_cast<float>(patch_dim));
  projection_ = AG::constant(T::randn({patch_dim, token_dim}, rng, 0.0f, stddev));
}

AG::Var PatchEmbed::forward(const AG::Var& feature_map) const {
  const auto& shape = feature_map->value().shape();
  if (shape != T::Shape{channels_, map_size_, map_size_}) {
    throw ShapeError("PatchEmbed expects [" + std::to_string(channels_) + "," +
                     std::to_string(map_size_) + "," + std::to_string(map_size_) +
                     "], got " + T::shape_to_string(shape));
  }
  // Rearrange [C,S,S] into [n, C*patch*patch] patch rows; gradient flows via
  // slice/concat-free reconstruction: we gather using differentiable reshape
  // and matmul after building a permutation with slice ops would be wasteful,
  // so we instead express the gather as a constant permutation matrix P:
  // tokens = P * flat(F). P is [n*patch_dim, C*S*S] but sparse; to stay dense
  // and cheap we implement the gather manually with a custom op-free path:
  // flatten -> per-token slices would need strided slicing. Simplest correct
  // differentiable route: reshape to [C, S*S] then build each token by
  // concatenating column slices.
  const std::size_t per_side = map_size_ / patch_;
  const AG::Var flat = AG::reshape(feature_map, {channels_, map_size_ * map_size_});
  AG::Var tokens;  // [n, patch_dim]
  for (std::size_t ti = 0; ti < per_side; ++ti) {
    for (std::size_t tj = 0; tj < per_side; ++tj) {
      // Gather the patch rows: for each row inside the patch, take a
      // contiguous column span of `flat`, transpose-free by slicing columns.
      AG::Var patch_cols;  // [C, patch*patch]
      for (std::size_t pi = 0; pi < patch_; ++pi) {
        const std::size_t row = ti * patch_ + pi;
        const std::size_t lo = row * map_size_ + tj * patch_;
        const AG::Var span = AG::slice_cols(flat, lo, lo + patch_);  // [C, patch]
        patch_cols = (pi == 0) ? span : AG::concat_cols(patch_cols, span);
      }
      // [C, patch*patch] -> [1, C*patch*patch]
      const AG::Var token_row =
          AG::reshape(patch_cols, {1, channels_ * patch_ * patch_});
      tokens = (ti == 0 && tj == 0) ? token_row : AG::concat_rows(tokens, token_row);
    }
  }
  return AG::matmul(tokens, projection_);  // [n, token_dim]
}

PromptNet::PromptNet(const PromptNetConfig& config, util::Rng& rng)
    : config_(config) {
  REFFIL_CHECK_MSG(config.image_size == 16,
                   "PromptNet is sized for 16x16 inputs (ResNetMini)");
  features_ = std::make_unique<ResNetMini>(config.image_channels, rng);
  patch_embed_ = std::make_unique<PatchEmbed>(
      ResNetMini::kFeatChannels, ResNetMini::kFeatSize, config.patch,
      config.token_dim, config.frozen_seed);
  cls_token_ = add_parameter(T::randn({1, config.token_dim}, rng, 0.0f, 0.2f));
  block_ = std::make_unique<AttentionBlock>(config.token_dim, config.attn_heads,
                                            config.mlp_hidden, rng);
  classifier_ = std::make_unique<Linear>(config.token_dim, config.num_classes, rng);
  register_submodule(*features_);
  register_submodule(*block_);
  register_submodule(*classifier_);
}

AG::Var PromptNet::tokenize(const T::Tensor& image) const {
  if (image.shape() !=
      T::Shape{config_.image_channels, config_.image_size, config_.image_size}) {
    throw ShapeError("PromptNet expects [" + std::to_string(config_.image_channels) +
                     ",16,16] image, got " + T::shape_to_string(image.shape()));
  }
  const AG::Var feats = features_->forward(AG::constant(image));
  const AG::Var patches = patch_embed_->forward(feats);  // [n, d]
  return AG::concat_rows(cls_token_, patches);           // Eq. (12)
}

PromptNetOutput PromptNet::forward(const T::Tensor& image,
                                   const std::optional<AG::Var>& prompts) const {
  return forward_tokens(tokenize(image), prompts);
}

PromptNetOutput PromptNet::forward_tokens(const AG::Var& tokens,
                                          const std::optional<AG::Var>& prompts) const {
  obs::prof::Span span("nn.forward");
  std::size_t cls_index = 0;
  AG::Var seq = tokens;
  if (prompts.has_value()) {
    const auto& pv = (*prompts)->value();
    if (pv.rank() != 2 || pv.dim(1) != config_.token_dim) {
      throw ShapeError("prompts must be [p, token_dim], got " +
                       T::shape_to_string(pv.shape()));
    }
    seq = AG::concat_rows(*prompts, tokens);
    cls_index = pv.dim(0);
  }
  const AG::Var out = block_->forward(seq);
  const AG::Var cls = AG::slice_rows(out, cls_index, cls_index + 1);  // [1, d]
  const AG::Var logits = classifier_->forward(cls);                   // Eq. (14)
  return PromptNetOutput{logits, cls, tokens};
}

}  // namespace reffil::nn
