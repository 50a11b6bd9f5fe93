#pragma once

/// \file embedder.h
/// IR2Vec-style program embeddings (the RL state representation). Mirrors
/// the published IR2Vec structure: a seed vocabulary assigns each
/// fundamental IR entity (opcode, type, operand kind) a deterministic
/// d-dimensional vector; instruction embeddings combine opcode/type/operand
/// vectors with fixed weights; a flow-aware refinement mixes in use-def
/// producers; function and program embeddings aggregate upwards. Programs
/// are represented as 300-dimensional vectors, as in the paper.
///
/// Bit-identity contract. Every output element is the result of the same
/// sequence of individually rounded IEEE mul/add operations, whichever
/// dispatch path (scalar loop or simd::axpyAvx2, see rl/matrix_simd.h) runs
/// and however the work is organised:
///   - symbolic vector of an instruction =
///       ((0 + w_opcode·opcode) + w_type·type) + Σ_k w_operand·kind_k, in
///       operand order, then + w_type·attr:vector when vectorWidth() > 1;
///   - each flow round: next_i = prev_i + Σ share_i·prev_def, over the
///     instruction's operands in operand order, skipping operands that are
///     not instructions of the same function; share_i = flow_rate / (number
///     of operands of i that are instructions, wherever they live);
///   - function embedding = sum of the final-round rows in layout order;
///     program embedding = sum of function embeddings in layout order, then
///     0.25·global:type per global, then the log1p norm rescale.
/// Training traces, saved models and the embedding cache's contents rely on
/// this: the embedder may be restructured, never reassociated.
///
/// Memo scope: entity vectors are cached for the Embedder's lifetime (a few
/// dozen vocabulary entries); symbolic vectors are memoized by instruction
/// signature for one embedFunction/embedProgram call only, so peak memory
/// does not grow with the programs an environment has seen.
///
/// Not thread-safe: the entity cache is mutable state behind const methods.
/// Each environment owns its own Embedder. Numbering a function re-stamps
/// its instructions' scratch slots (Value::stampFingerprintId), so a caller
/// in the middle of its own stamping walk must re-number after an embed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace posetrl {

class Module;
class Function;
class Instruction;

/// Configuration of the embedding space.
struct EmbeddingConfig {
  int dim = 300;
  std::uint64_t vocab_seed = 0x49523256;  // "IR2V"
  double weight_opcode = 1.0;
  double weight_type = 0.5;
  double weight_operand = 0.2;
  /// Flow refinement: how much of the producers' embeddings flows into a
  /// consumer, and how many propagation rounds run.
  double flow_rate = 0.2;
  int flow_rounds = 2;
};

using Embedding = std::vector<double>;

/// Computes deterministic, flow-aware embeddings of MiniIR entities.
class Embedder {
 public:
  explicit Embedder(EmbeddingConfig config = {});

  const EmbeddingConfig& config() const { return config_; }

  /// Seed vector of a named vocabulary entity (stable across runs).
  Embedding entityVector(const std::string& entity) const;

  /// Flow-aware embedding of a function (sum over refined instructions).
  Embedding embedFunction(const Function& f) const;

  /// Program-level embedding: the RL observation/state vector.
  Embedding embedProgram(const Module& m) const;

 private:
  struct SignatureMemo;

  /// The instruction's symbolic (non-flow) vector, memoized by signature;
  /// valid while \p memo lives.
  const double* symbolicVector(const Instruction& inst, SignatureMemo& memo,
                               bool avx2) const;
  /// embedFunction with a caller-scoped memo and a resolved dispatch path.
  Embedding sumFunction(const Function& f, SignatureMemo& memo,
                        bool avx2) const;
  /// Memoized entityVector — the vocabulary is tiny (opcodes, types,
  /// operand kinds) while programs are large.
  const Embedding& cachedEntity(const std::string& entity) const;

  EmbeddingConfig config_;
  mutable std::map<std::string, Embedding> entity_cache_;
};

}  // namespace posetrl
