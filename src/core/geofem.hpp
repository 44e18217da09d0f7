#pragma once

#include <optional>
#include <string>

#include "coarse/coarse.hpp"
#include "contact/penalty.hpp"
#include "core/options.hpp"
#include "core/resilience.hpp"
#include "core/status.hpp"
#include "fem/assembly.hpp"
#include "mesh/hex_mesh.hpp"
#include "plan/cache.hpp"
#include "plan/fingerprint.hpp"
#include "precond/preconditioner.hpp"
#include "reorder/djds.hpp"
#include "solver/cg.hpp"

namespace geofem::obs {
class Registry;
}

/// Public one-call API of the library: assemble a contact problem, pick a
/// preconditioner and (optionally) the PDJDS/MC vector ordering, solve, and
/// get the paper-style instrumentation back (iterations, timings, FLOPs,
/// memory, vector-length/imbalance statistics).
namespace geofem::core {

// The structure-relevant vocabulary lives with the plan subsystem (it keys
// the plan cache); aliased here so core callers keep spelling
// core::PrecondKind::kSBBIC0 etc.
using PrecondKind = plan::PrecondKind;
using OrderingKind = plan::OrderingKind;

[[nodiscard]] std::string to_string(PrecondKind k);

/// Shared solver knobs (cg, threads, overlap, plan_cache, resilience, coarse,
/// precision) live in core::SolveOptionsBase — one header embedded by this
/// struct and dist::DistOptions alike — so the two entry points cannot drift.
struct SolveConfig : SolveOptionsBase {
  PrecondKind precond = PrecondKind::kSBBIC0;
  double penalty = 1e6;        ///< lambda applied to the mesh contact groups
  OrderingKind ordering = OrderingKind::kNatural;
  int colors = 20;             ///< MC target color count (PDJDS path)
  int npe = 8;                 ///< PEs per SMP node (PDJDS path)
  bool sort_supernodes = true; ///< Fig 22 switch
  /// Consult the plan cache (SolveOptionsBase::plan_cache, or the
  /// process-wide plan::default_cache() when that is null) for the
  /// structure-dependent set-up; false always rebuilds.
  bool use_plan_cache = true;
  /// Re-entrant session entry (svc::SolverService): when set, this registry
  /// is obs::Attach-ed to the calling thread for the duration of the solve,
  /// so concurrent sessions in one process record telemetry independently
  /// without the caller managing attachment around every call. Null keeps
  /// whatever registry the thread already has attached.
  obs::Registry* registry = nullptr;
};

struct SolveReport {
  /// Outcome of the whole pipeline. Equal to cg.status for a direct solve;
  /// kFellBack when a fallback rebuild recovered convergence;
  /// kFactorizationFailed when every attempted factorization threw.
  SolveStatus status = SolveStatus::kMaxIterations;
  /// Preconditioner kinds tried in order; the last one produced `cg`.
  std::vector<PrecondKind> attempts;
  /// CG iterations / set-up seconds burnt in earlier failed attempts (zero
  /// for a direct solve).
  int fallback_iterations = 0;
  double fallback_setup_seconds = 0.0;
  solver::CGResult cg;
  std::vector<double> solution;    ///< mesh ordering, 3 DOF per node
  /// Structured identity of the preconditioner that produced `cg` (kind,
  /// precision, PDJDS, coarse mode/dim). `precond_name` is its rendering
  /// (Desc::display_name()), kept for table/report compatibility.
  precond::Desc precond;
  std::string precond_name;
  /// fp32 attempts re-set-up at fp64 after stagnation/breakdown (0 or 1).
  int precision_fallbacks = 0;
  double setup_seconds = 0.0;      ///< reorder + factorization
  std::size_t matrix_bytes = 0;
  std::size_t precond_bytes = 0;
  // PDJDS statistics (zero on the CSR path)
  double avg_vector_length = 0.0;
  double load_imbalance_percent = 0.0;
  double dummy_percent = 0.0;
  int colors_used = 0;
  // plan reuse
  bool plan_reused = false;        ///< set-up came from a cached plan
  double symbolic_seconds = 0.0;   ///< structure phase when the plan was built
  double numeric_seconds = 0.0;    ///< value phase of this solve
  plan::CacheStats plan_cache;     ///< stats of the cache consulted
  // two-level coarse correction (kOff unless SolveConfig::coarse.enabled)
  coarse::SetupStatus coarse_status = coarse::SetupStatus::kOff;
  int coarse_dim = 0;              ///< coarse DOFs (3 per aggregate) when active
  double coarse_setup_seconds = 0.0;  ///< Galerkin assembly + dense factorization

  [[nodiscard]] bool converged() const { return ok(status); }
};

/// Build the requested preconditioner on an assembled matrix. `sn` is only
/// used by kSBBIC0 (copied). `precision` selects the stored factor scalar
/// (kSingle = fp32 mirrors; throws Error(kFactorizationFailed) on narrowing
/// overflow).
precond::PreconditionerPtr make_preconditioner(
    PrecondKind kind, const sparse::BlockCSR& a, const contact::Supernodes& sn,
    precond::Precision precision = precond::Precision::kDouble);

/// Assemble (elasticity + penalty + boundary conditions) and solve.
SolveReport solve(const mesh::HexMesh& m, const std::vector<fem::Material>& materials,
                  const fem::BoundaryConditions& bc, const SolveConfig& cfg);

/// Solve a prepared system (penalty and BCs already applied). `sn` is the
/// supernode map built from the matrix's contact groups (selective blocking),
/// so callers can't hand in a group list inconsistent with the matrix they
/// assembled it from.
SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg);

/// Batched multi-RHS entry (DESIGN.md §5k): solve A x_c = b_c for the k
/// right-hand sides in `rhs` (each ndof long; sys.b is ignored). solve_system
/// is the k = 1 case of the same pipeline: one session entry, one set-up
/// (plan lookup + numeric factorization) per ladder rung, and one batched CG
/// per attempt in which every iteration does a single SpMM and a single
/// multi-column preconditioner application for all live columns. Returns one
/// SolveReport per column, in order: per-column status / iterations /
/// residuals / solution; the set-up and ladder bookkeeping (plan reuse,
/// timings, bytes, attempts, precision_fallbacks) is replicated into every
/// report, the shared CG flops/loops are carried by column 0 only (summing
/// across columns would double-count shared work), and every column's
/// cg.solve_seconds is the batch wall time. fallback_iterations is per
/// column.
///
/// `tolerances` is empty (every column uses cfg.cg.tolerance) or one entry
/// per column.
///
/// Contract: rhs.size() == 1 is bit-identical to solve_system with the
/// tolerance override applied, and copies nothing of the matrix. For k > 1
/// the fallback ladder (core/ladder.hpp) drives the batch as one solve: an
/// attempt fails when any column fails; the fp32 -> fp64 re-set-up restarts
/// every column cold, so it replays a direct fp64 batch bit for bit; a
/// resilience rung restarts every column warm from its last iterate, and a
/// column that had converged freezes there at 0 iterations. When the batch
/// converges every column reports the ladder's status (kConverged or
/// kFellBack); otherwise each column reports its own CG status. k > 1
/// requires CGVariant::kClassic (checked); the stagnation window the ladder
/// arms for resilience and fp32 applies to each column, so a stalled batch
/// reacts after about the same iterations as the stalled column alone.
std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances = {});

}  // namespace geofem::core
