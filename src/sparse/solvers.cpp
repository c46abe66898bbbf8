#include "sparse/solvers.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "sparse/gmres.hpp"
#include "sparse/ic0.hpp"

namespace lcn::sparse {

namespace {
std::size_t effective_max_iters(const SolveOptions& opts, std::size_t n) {
  return opts.max_iterations != 0 ? opts.max_iterations : 10 * n + 100;
}

std::size_t retry_max_iters(std::size_t n, const SolveOptions& opts) {
  return 4 * effective_max_iters(opts, n);
}

GmresOptions gmres_options(const SolveOptions& opts) {
  GmresOptions gmres;
  gmres.rel_tolerance = opts.rel_tolerance;
  gmres.restart = opts.gmres_restart;
  gmres.max_outer = opts.gmres_max_outer;
  gmres.record_residuals = opts.record_residuals;
  return gmres;
}

// Records the final iteration count and solve latency on every exit path of
// a solver, plus a fine-level trace span carrying the outcome. The span
// member is declared first so its end event is emitted after
// ~IterationRecorder has attached the args (members destroy in reverse
// order).
struct IterationRecorder {
  trace::Span span;
  metrics::ScopedLatency latency;
  const SolveReport& report;
  metrics::Counter solves;
  metrics::Counter iterations;
  IterationRecorder(const char* name, metrics::Hist hist,
                    const SolveReport& r, metrics::Counter solves_counter,
                    metrics::Counter iterations_counter)
      : span(name, trace::kFine),
        latency(hist),
        report(r),
        solves(solves_counter),
        iterations(iterations_counter) {}
  ~IterationRecorder() {
    metrics::count(solves);
    metrics::count(iterations, report.iterations);
    if (span.active()) {
      span.set_args(strfmt("\"iters\":%zu,\"rel\":%.3e,\"converged\":%s",
                           report.iterations, report.relative_residual,
                           report.converged ? "true" : "false"));
    }
  }
};

// Keeps SolveReport::residual_history's final entry equal to the reported
// relative residual on every exit path (the contract sparse_test asserts).
void finish_history(SolveReport& report, bool recording) {
  if (!recording) return;
  if (report.residual_history.empty() ||
      report.residual_history.back() != report.relative_residual) {
    report.residual_history.push_back(report.relative_residual);
  }
}

// The one CG implementation; scratch lives in the workspace and every vector
// read is re-initialised first, so a fresh and a reused workspace produce
// bit-identical iterates.
SolveReport cg_impl(const CsrMatrix& a, const Vector& b, Vector& x,
                    const Preconditioner& m, const SolveOptions& opts,
                    SolverWorkspace& ws) {
  const std::size_t n = a.rows();
  LCN_REQUIRE(a.cols() == n, "CG needs a square matrix");
  LCN_REQUIRE(b.size() == n, "CG rhs size mismatch");
  x.resize(n, 0.0);

  const double bnorm = norm2(b);
  SolveReport report;
  const IterationRecorder recorder("cg_solve", metrics::Hist::cg_seconds,
                                   report, metrics::Counter::cg_solves,
                                   metrics::Counter::cg_iterations);
  const bool recording = opts.record_residuals;
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    report.converged = true;
    finish_history(report, recording);
    return report;
  }

  Vector& r = ws.r;
  r = b;
  a.multiply(x, ws.ax);
  axpy(-1.0, ws.ax, r);
  Vector& z = ws.z;
  m.apply(r, z);
  Vector& p = ws.p;
  p = z;
  Vector& ap = ws.ap;
  double rz = dot(r, z);

  const std::size_t max_iters = effective_max_iters(opts, n);
  for (std::size_t it = 0; it < max_iters; ++it) {
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Not SPD (or numerically degenerate) — bail out with best effort.
      report.iterations = it;
      report.relative_residual = norm2(r) / bnorm;
      finish_history(report, recording);
      return report;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);

    const double rel = norm2(r) / bnorm;
    if (recording) report.residual_history.push_back(rel);
    if (rel < opts.rel_tolerance) {
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = rel;
      return report;
    }

    m.apply(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpby(z, beta, p);
  }

  report.iterations = max_iters;
  report.relative_residual = norm2(r) / bnorm;
  finish_history(report, recording);
  return report;
}

SolveReport bicgstab_impl(const CsrMatrix& a, const Vector& b, Vector& x,
                          const Preconditioner& m, const SolveOptions& opts,
                          SolverWorkspace& ws) {
  const std::size_t n = a.rows();
  LCN_REQUIRE(a.cols() == n, "BiCGSTAB needs a square matrix");
  LCN_REQUIRE(b.size() == n, "BiCGSTAB rhs size mismatch");
  x.resize(n, 0.0);

  const double bnorm = norm2(b);
  SolveReport report;
  const IterationRecorder recorder("bicgstab_solve",
                                   metrics::Hist::bicgstab_seconds, report,
                                   metrics::Counter::bicgstab_solves,
                                   metrics::Counter::bicgstab_iterations);
  const bool recording = opts.record_residuals;
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    report.converged = true;
    finish_history(report, recording);
    return report;
  }

  Vector& r = ws.r;
  r = b;
  a.multiply(x, ws.ax);
  axpy(-1.0, ws.ax, r);
  Vector& r0 = ws.r0;
  r0 = r;
  ws.p.assign(n, 0.0);
  ws.v.assign(n, 0.0);
  Vector& p = ws.p;
  Vector& v = ws.v;
  Vector& phat = ws.phat;
  Vector& shat = ws.shat;
  Vector& s = ws.s;
  Vector& t = ws.t;

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;

  const std::size_t max_iters = effective_max_iters(opts, n);
  for (std::size_t it = 0; it < max_iters; ++it) {
    const double rho_next = dot(r0, r);
    if (std::abs(rho_next) < 1e-300) break;  // breakdown
    if (it == 0) {
      p = r;
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      // p = r + beta * (p - omega * v)
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_next;

    m.apply(p, phat);
    a.multiply(phat, v);
    const double r0v = dot(r0, v);
    if (std::abs(r0v) < 1e-300) break;
    alpha = rho / r0v;

    s = r;
    axpy(-alpha, v, s);
    if (norm2(s) / bnorm < opts.rel_tolerance) {
      axpy(alpha, phat, x);
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = norm2(s) / bnorm;
      finish_history(report, recording);
      return report;
    }

    m.apply(s, shat);
    a.multiply(shat, t);
    const double tt = dot(t, t);
    if (tt < 1e-300) break;
    omega = dot(t, s) / tt;

    axpy(alpha, phat, x);
    axpy(omega, shat, x);
    r = s;
    axpy(-omega, t, r);

    const double rel = norm2(r) / bnorm;
    if (recording) report.residual_history.push_back(rel);
    if (rel < opts.rel_tolerance) {
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = rel;
      return report;
    }
    if (std::abs(omega) < 1e-300) break;
  }

  a.multiply(x, ws.ax);
  Vector& final_r = ws.t;
  final_r = b;
  axpy(-1.0, ws.ax, final_r);
  report.iterations = max_iters;
  report.relative_residual = norm2(final_r) / bnorm;
  report.converged = report.relative_residual < opts.rel_tolerance;
  finish_history(report, recording);
  return report;
}

// Shared BiCGSTAB→retry→GMRES cascade used by the solve_general_or_throw
// variants; the workspace and preconditioner are caller-owned.
void general_cascade(const CsrMatrix& a, const Vector& b, Vector& x,
                     const std::string& context, const Preconditioner& m,
                     SolverWorkspace& ws, const SolveOptions& opts) {
  SolveReport report = bicgstab_impl(a, b, x, m, opts, ws);
  if (!report.converged) {
    // One retry from scratch with a fresh zero guess and more iterations —
    // BiCGSTAB can stagnate from an unlucky shadow residual.
    x.assign(a.rows(), 0.0);
    SolveOptions retry = opts;
    retry.max_iterations = retry_max_iters(a.rows(), opts);
    report = bicgstab_impl(a, b, x, m, retry, ws);
  }
  if (!report.converged) {
    // Robust fallback for strongly advective systems: restarted GMRES with
    // the same preconditioner.
    x.assign(a.rows(), 0.0);
    const SolveReport gmres_report =
        gmres_solve(a, b, x, m, ws, gmres_options(opts));
    if (gmres_report.converged) {
      LCN_DEBUG() << context << ": GMRES fallback converged in "
                  << gmres_report.iterations << " iters";
      return;
    }
    report = gmres_report;
  }
  if (!report.converged) {
    throw RuntimeError(context +
                       ": BiCGSTAB and GMRES failed to converge (rel residual " +
                       std::to_string(report.relative_residual) + " after " +
                       std::to_string(report.iterations) + " iterations)");
  }
  LCN_DEBUG() << context << ": BiCGSTAB converged in " << report.iterations
              << " iters, rel residual " << report.relative_residual;
}
}  // namespace

SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, const SolveOptions& opts) {
  SolverWorkspace ws;
  return cg_impl(a, b, x, m, opts, ws);
}

SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, SolverWorkspace& ws,
                     const SolveOptions& opts) {
  metrics::count(metrics::Counter::workspace_reuses);
  return cg_impl(a, b, x, m, opts, ws);
}

SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m, const SolveOptions& opts) {
  SolverWorkspace ws;
  return bicgstab_impl(a, b, x, m, opts, ws);
}

SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m, SolverWorkspace& ws,
                           const SolveOptions& opts) {
  metrics::count(metrics::Counter::workspace_reuses);
  return bicgstab_impl(a, b, x, m, opts, ws);
}

void solve_spd_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                        const std::string& context, const SolveOptions& opts) {
  // IC(0) when the matrix admits it, Jacobi otherwise.
  SolveReport report;
  try {
    const Ic0Preconditioner ic0(a);
    report = cg_solve(a, b, x, ic0, opts);
  } catch (const RuntimeError&) {
    report.converged = false;
  }
  if (!report.converged) {
    x.assign(a.rows(), 0.0);
    const JacobiPreconditioner jacobi(a);
    report = cg_solve(a, b, x, jacobi, opts);
  }
  if (!report.converged) {
    throw RuntimeError(context + ": CG failed to converge (rel residual " +
                       std::to_string(report.relative_residual) + " after " +
                       std::to_string(report.iterations) + " iterations)");
  }
  LCN_DEBUG() << context << ": CG converged in " << report.iterations
              << " iters, rel residual " << report.relative_residual;
}

void solve_general_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                            const std::string& context,
                            const SolveOptions& opts) {
  const Ilu0Preconditioner ilu(a);
  SolverWorkspace ws;
  general_cascade(a, b, x, context, ilu, ws, opts);
}

void solve_general_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                            const std::string& context, const Preconditioner& m,
                            SolverWorkspace& ws, const SolveOptions& opts) {
  metrics::count(metrics::Counter::workspace_reuses);
  general_cascade(a, b, x, context, m, ws, opts);
}

}  // namespace lcn::sparse
