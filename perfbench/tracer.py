"""Per-layer spans recorded around calls into rodgp's public functions.

The program itself is not instrumented: install() swaps each traced
function for a timing wrapper in every rodgp module that binds it, so
calls made through a module attribute (solver.assemble) and through a
name imported with `from ... import` (prior_error inside solver) are both
seen. Spans are folded into per-function totals as they close, which
keeps memory flat however long the run is. A function that no longer
exists is skipped and reports zero.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> public functions, named <module>.<function> in the metrics.
# rodsim.sample_dataset is the root span of the simulate workload.
TRACED = {
    "rodsim": ["sample_dataset", "solve_static", "integrate_rod", "extract_measurements", "GroundTruthShape.state_at"],
    "se3": ["exp_se3", "log_se3", "left_jacobian", "left_jacobian_inv"],
    "prior": ["prior_error", "prior_error_jacobian"],
    "measurements": ["pose_error", "pose_error_jacobian"],
    "solver": [
        "gauss_newton",
        "assemble",
        "total_cost",
        "block_tridiag_cholesky",
        "block_tridiag_solve_factored",
        "block_tridiag_marginals",
    ],
    "interpolation": ["query_state", "query_cov"],
    "study": ["run_single", "run_study"],
}


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


TRACED_NAMES = [metric_name(m, q) for m, names in TRACED.items() for q in names]


class Tracer:
    """Call counts and self times per traced function.

    A span's self time is its duration minus the durations of the spans
    it directly encloses, so the self times of one root span and all its
    descendants add up to the root's duration. Recording happens only
    while `enabled` is set, so set-up, warm-up and checks stay out.
    """

    def __init__(self):
        self.calls = {name: 0 for name in TRACED_NAMES}
        self.self_s = {name: 0.0 for name in TRACED_NAMES}
        # (root name, root duration, summed self time of its subtree)
        self.roots = []
        self.enabled = False
        self._stack = []
        self._patched = []

    def wrap(self, name: str, fn):
        stack, calls, self_s, roots = self._stack, self.calls, self.self_s, self.roots
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]  # time in child spans, self time of the subtree below
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                calls[name] += 1
                self_s[name] += own
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += frame[1] + own
                else:
                    roots.append((name, duration, frame[1] + own))

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a rodgp module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rodgp" or n.startswith("rodgp.")]
        for module_name, qualnames in TRACED.items():
            module = sys.modules.get(f"rodgp.{module_name}")
            if module is None:
                continue
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(metric_name(module_name, qualname), original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for candidate in modules:
                    for key, value in list(vars(candidate).items()):
                        if value is original:
                            self._patch(candidate, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def unbalanced_roots(self) -> int:
        """Root spans whose subtree self times do not sum to their duration."""
        return sum(1 for _, dur, total in self.roots if abs(total - dur) > 1e-9 * max(dur, 1e-9))
