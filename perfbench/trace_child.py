"""Run one ``mivest`` command in-process with spans around each layer's calls.

Usage: python trace_child.py SPANS_JSON -- <mivest argv...>

Each public name is wrapped where its caller binds it, so the library itself
is not modified.  Spans (name, start, end, parent, counters) are kept in
memory and written to SPANS_JSON when the command returns.  The process exits
with the command's own exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index, counters]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        """``fn`` timed as span ``name``; ``counters(args, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span[4] = counters(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, counters=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counters))


def _fit_counts(args, res) -> dict:
    return {"newton_iters": int(res.n_iter), "converged": int(bool(res.converged))}


def install(tracer: Tracer) -> None:
    import mivest.binary
    import mivest.cli
    import mivest.crossfit
    import mivest.general
    import mivest.nuisance
    import mivest.simulation
    from mivest.learners import MultinomialModel, PolyBasis

    cli = mivest.cli
    tracer.patch(cli, "ingest_csv", "dataio.ingest_csv")
    tracer.patch(cli, "write_report", "dataio.write_report")
    tracer.patch(cli, "solve_functional", "general.solve_functional")
    tracer.patch(cli, "crossfit_population_mean", "crossfit.crossfit_population_mean")
    # the CLI calls crossfit_beta directly; _mc_worker imports it lazily
    for owner in (cli, mivest.crossfit):
        tracer.patch(owner, "crossfit_beta", "crossfit.crossfit_beta")
    # _mc_worker imports fit_nuisance_set lazily from mivest.nuisance
    for owner in (mivest.crossfit, mivest.general, mivest.nuisance):
        tracer.patch(owner, "fit_nuisance_set", "nuisance.fit_nuisance_set")
    tracer.patch(mivest.general, "fit_mu_component", "nuisance.fit_mu_component")
    for owner in (mivest.general, mivest.binary):
        tracer.patch(owner, "evaluate_nuisances", "nuisance.evaluate_nuisances")
    tracer.patch(mivest.nuisance, "fit_logistic", "learners.fit_logistic", _fit_counts)
    tracer.patch(mivest.nuisance, "fit_multinomial", "learners.fit_multinomial", _fit_counts)
    tracer.patch(mivest.nuisance, "fit_linear", "learners.fit_linear")
    tracer.patch(PolyBasis, "transform", "learners.PolyBasis.transform",
                 lambda args, res: {"rows": int(res.shape[0]) if res.ndim == 2 else 1})
    tracer.patch(MultinomialModel, "predict_proba", "learners.MultinomialModel.predict_proba")
    tracer.patch(cli, "oracle_beta", "simulation.oracle_beta",
                 lambda args, res: {"draws": int(res.draws)})
    tracer.patch(cli, "run_monte_carlo", "simulation.run_monte_carlo")
    tracer.patch(mivest.simulation, "generate", "simulation.generate")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import mivest.cli

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli", mivest.cli.main)(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as f:
        json.dump({"exit_code": code, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
