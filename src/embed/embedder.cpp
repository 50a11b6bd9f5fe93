#include "embed/embedder.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/global_variable.h"
#include "ir/instruction.h"
#include "ir/module.h"
#include "rl/matrix_simd.h"
#include "support/hashing.h"
#include "support/rng.h"

namespace posetrl {

namespace {

/// Operand-kind vocabulary, indexed by operandKind().
constexpr const char* kOperandKindEntities[] = {
    "operand:const",  "operand:arg",      "operand:label",
    "operand:global", "operand:function", "operand:var",
};

unsigned operandKind(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::ConstantInt:
    case Value::Kind::ConstantFloat:
    case Value::Kind::ConstantNull:
    case Value::Kind::Undef:
      return 0;
    case Value::Kind::Argument:
      return 1;
    case Value::Kind::BasicBlock:
      return 2;
    case Value::Kind::GlobalVariable:
      return 3;
    case Value::Kind::Function:
      return 4;
    case Value::Kind::Instruction:
      return 5;
  }
  return 5;
}

/// Everything an instruction's symbolic vector reads. Types are uniqued
/// per module, and a memo never outlives one call on one module, so the
/// Type pointer stands for the type entity.
struct Signature {
  /// Opcode, icmp predicate, vector flag and operand count.
  std::uint64_t head = 0;
  const Type* type = nullptr;
  /// kKindBits per operand kind, first operand in the lowest bits.
  std::uint64_t kinds = 0;

  bool operator==(const Signature&) const = default;
};

constexpr unsigned kKindBits = 3;
constexpr std::size_t kMaxKeyedOperands = 64 / kKindBits;

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    return static_cast<std::size_t>(hashCombine(
        hashCombine(s.head, reinterpret_cast<std::uintptr_t>(s.type)),
        s.kinds));
  }
};

/// y[j] += a * x[j]: one mul and one add per element on either dispatch
/// path, so both produce the same bytes.
void axpy(double* y, const double* x, double a, std::size_t n, bool avx2) {
#if defined(__x86_64__) || defined(_M_X64)
  if (avx2) return simd::axpyAvx2(y, x, a, n);
#else
  (void)avx2;
#endif
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

}  // namespace

/// Symbolic vectors of one embedFunction/embedProgram call, keyed by
/// signature. Scoped to the call so its memory goes with it.
struct Embedder::SignatureMemo {
  std::unordered_map<Signature, Embedding, SignatureHash> keyed;
  /// Instructions with more operands than a Signature packs.
  std::deque<Embedding> unkeyed;
};

Embedder::Embedder(EmbeddingConfig config) : config_(config) {}

Embedding Embedder::entityVector(const std::string& entity) const {
  // Seeded by a stable hash of the entity name: the "vocabulary" needs no
  // training run to exist (IR2Vec's seed vocabulary plays the same role).
  Rng rng(fnv1a(entity) ^ config_.vocab_seed);
  Embedding v(static_cast<std::size_t>(config_.dim));
  const double scale = 1.0 / std::sqrt(static_cast<double>(config_.dim));
  for (double& x : v) x = rng.nextGaussian() * scale;
  return v;
}

const Embedding& Embedder::cachedEntity(const std::string& entity) const {
  auto it = entity_cache_.find(entity);
  if (it != entity_cache_.end()) return it->second;
  return entity_cache_.emplace(entity, entityVector(entity)).first->second;
}

const double* Embedder::symbolicVector(const Instruction& inst,
                                       SignatureMemo& memo, bool avx2) const {
  const std::size_t n_ops = inst.numOperands();
  const bool is_icmp = inst.opcode() == Opcode::ICmp;
  const bool is_vector = inst.vectorWidth() > 1;
  const std::uint64_t pred =
      is_icmp ? static_cast<std::uint64_t>(
                    static_cast<const ICmpInst&>(inst).pred())
              : 0;
  Signature sig;
  sig.head = static_cast<std::uint64_t>(inst.opcode()) | pred << 8 |
             static_cast<std::uint64_t>(is_vector) << 16 |
             static_cast<std::uint64_t>(n_ops) << 32;
  sig.type = inst.type();
  Embedding* slot = nullptr;
  if (n_ops <= kMaxKeyedOperands) {
    for (std::size_t k = 0; k < n_ops; ++k) {
      sig.kinds |= static_cast<std::uint64_t>(operandKind(*inst.operand(k)))
                   << (k * kKindBits);
    }
    auto [it, inserted] = memo.keyed.try_emplace(sig);
    if (!inserted) return it->second.data();
    slot = &it->second;
  } else {
    slot = &memo.unkeyed.emplace_back();
  }

  const std::size_t dim = static_cast<std::size_t>(config_.dim);
  Embedding& v = *slot;
  v.assign(dim, 0.0);
  std::string op_entity = std::string("opcode:") + opcodeName(inst.opcode());
  if (is_icmp) {
    op_entity += ":";
    op_entity += ICmpInst::predName(static_cast<const ICmpInst&>(inst).pred());
  }
  axpy(v.data(), cachedEntity(op_entity).data(), config_.weight_opcode, dim,
       avx2);
  axpy(v.data(), cachedEntity("type:" + inst.type()->str()).data(),
       config_.weight_type, dim, avx2);
  for (const Value* operand : inst.operands()) {
    axpy(v.data(),
         cachedEntity(kOperandKindEntities[operandKind(*operand)]).data(),
         config_.weight_operand, dim, avx2);
  }
  if (is_vector) {
    axpy(v.data(), cachedEntity("attr:vector").data(), config_.weight_type,
         dim, avx2);
  }
  return v.data();
}

Embedding Embedder::sumFunction(const Function& f, SignatureMemo& memo,
                                 bool avx2) const {
  const std::size_t dim = static_cast<std::size_t>(config_.dim);
  // Dense numbering in layout order through the scratch slot. A fresh
  // generation per function leaves operands defined elsewhere unnumbered,
  // so the flow rounds skip them.
  const std::uint64_t gen = Value::nextStampGeneration();
  std::vector<const double*> rows;  // each instruction's current-round row
  for (const auto& bb : f.blocks()) {
    for (const auto& inst : bb->insts()) {
      inst->stampFingerprintId(gen, rows.size());
      rows.push_back(symbolicVector(*inst, memo, avx2));
    }
  }
  const std::size_t n = rows.size();

  // Use-def flow edges, CSR by consumer: edges[edge_begin[i]..
  // edge_begin[i + 1]) are instruction i's in-function producers in
  // operand order. share[i]'s divisor counts every instruction operand,
  // in-function or not.
  const int rounds = config_.flow_rounds;
  std::vector<std::uint32_t> edge_begin(1, 0);
  std::vector<std::uint32_t> edges;
  std::vector<double> share;
  if (rounds > 0) {
    edge_begin.reserve(n + 1);
    share.reserve(n);
    for (const auto& bb : f.blocks()) {
      for (const auto& inst : bb->insts()) {
        std::size_t producers = 0;
        for (const Value* op : inst->operands()) {
          if (!isa<Instruction>(op)) continue;
          ++producers;
          if (op->fingerprintIdValid(gen)) {
            edges.push_back(static_cast<std::uint32_t>(op->fingerprintId()));
          }
        }
        share.push_back(producers == 0 ? 0.0
                                       : config_.flow_rate /
                                             static_cast<double>(producers));
        edge_begin.push_back(static_cast<std::uint32_t>(edges.size()));
      }
    }
  }
  // next_i = prev_i + Σ share_i·prev_def into `dst` (dim doubles).
  auto flowRow = [&](std::size_t i, double* dst) {
    std::copy(rows[i], rows[i] + dim, dst);
    for (std::uint32_t e = edge_begin[i]; e < edge_begin[i + 1]; ++e) {
      axpy(dst, rows[edges[e]], share[i], dim, avx2);
    }
  };

  // Non-final rounds into one contiguous n × dim buffer, two alternating
  // so a round never writes the rows it reads. A row without in-function
  // producers never changes, so it keeps pointing at its memo entry.
  std::vector<double> cur, next;
  for (int round = 0; round + 1 < rounds; ++round) {
    next.resize(n * dim);
    for (std::size_t i = 0; i < n; ++i) {
      if (edge_begin[i] != edge_begin[i + 1]) flowRow(i, next.data() + i * dim);
    }
    cur.swap(next);
    for (std::size_t i = 0; i < n; ++i) {
      if (edge_begin[i] != edge_begin[i + 1]) rows[i] = cur.data() + i * dim;
    }
  }

  // The final round fused into the layout-order function sum.
  Embedding out(dim, 0.0);
  std::vector<double> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const double* r = rows[i];
    if (rounds > 0 && edge_begin[i] != edge_begin[i + 1]) {
      flowRow(i, row.data());
      r = row.data();
    }
    axpy(out.data(), r, 1.0, dim, avx2);
  }
  return out;
}

Embedding Embedder::embedFunction(const Function& f) const {
  SignatureMemo memo;
  return sumFunction(f, memo, simd::avx2Active());
}

Embedding Embedder::embedProgram(const Module& m) const {
  const std::size_t dim = static_cast<std::size_t>(config_.dim);
  const bool avx2 = simd::avx2Active();
  SignatureMemo memo;
  Embedding out(dim, 0.0);
  for (const auto& f : m.functions()) {
    if (f->isDeclaration()) continue;
    axpy(out.data(), sumFunction(*f, memo, avx2).data(), 1.0, dim, avx2);
  }
  // Globals contribute a light data-shape signal.
  for (const auto& g : m.globals()) {
    axpy(out.data(),
         cachedEntity("global:" + g->valueType()->str()).data(), 0.25, dim,
         avx2);
  }
  // Normalize magnitude so programs of very different sizes stay in a
  // comparable numeric range for the Q-network.
  double norm = 0.0;
  for (double x : out) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 1e-9) {
    const double scale = std::log1p(norm) / norm;
    for (double& x : out) x *= scale;
  }
  return out;
}

}  // namespace posetrl
