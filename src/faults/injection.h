#pragma once

/// \file injection.h
/// Deterministic fault-injection harness. Registers pathological passes via
/// the normal registerPass hook so every sandbox recovery path is
/// exercisable from tests, the trainer smoke gate (tools/check.sh) and the
/// opt_driver --inject-faults flag:
///
///   fault-throw       always throws PassFaultError
///   fault-check       trips a POSETRL_CHECK (contained by ScopedFaultTrap)
///   fault-bloat       multiplies the module's instruction count (~32x) to
///                     trip the IR-growth cap
///   fault-hang        spins forever, terminated only by the fuel budget
///   fault-miscompile  verifier-clean behaviour change (oracle fodder),
///                     reusing PR 1's injected-breaker technique

namespace posetrl {

/// Registers all injection passes (idempotent).
void registerFaultInjectionPasses();

}  // namespace posetrl
