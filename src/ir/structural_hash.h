#pragma once

/// \file structural_hash.h
/// Structural content hash of a module: a single O(instructions) walk that
/// covers everything the textual printer serializes (names, types,
/// opcodes, operands, predicates, alignments, vector widths, linkage,
/// attributes, globals and their initializers). Replaces hashing
/// `printModule(m)` as the embedding-cache key — the walk allocates
/// nothing and never materializes the module text.
///
/// Guarantees: modules with equal printed form hash equally, even across
/// distinct Module objects (types are hashed structurally, not by their
/// interning address); distinct contents collide only with 64-bit-hash
/// probability, the same contract the previous print-then-FNV key had.

#include <cstdint>

namespace posetrl {

class Module;
class Type;
struct InstAttrs;

/// Structural type hash, independent of interning addresses (so hashes and
/// analysis fingerprints agree across module clones). Memoized in the Type
/// itself (Type::analysisHashCache) — types are immutable, and every walk
/// hits the same handful of types for every operand of every instruction.
std::uint64_t structuralTypeHash(const Type* t);

/// Folds every field of \p attrs into \p h (types structurally). The one
/// instruction-attribute hash behind moduleContentHash and
/// fingerprintFunction.
std::uint64_t hashInstAttrs(std::uint64_t h, const InstAttrs& attrs);

std::uint64_t moduleContentHash(const Module& m);

}  // namespace posetrl
