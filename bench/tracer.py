"""Per-layer tracing from outside the program: wrappers on public functions.

Each traced function is replaced, in every ramfed module that holds it
under any name (so `training.loss_and_grad` is reached as well as
`models.loss_and_grad`), by a wrapper that counts calls and accumulates
self time: its own duration minus the time spent in traced callees.
Dataclass constructions are counted by wrapping `__post_init__`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "experiments": ("load_config", "build_datasets", "write_config_echo",
                    "format_metrics", "atomic_write_text"),
    "training": ("run_round", "local_update", "evaluate", "shard_loss"),
    "channel": ("relay",),
    "models": ("loss_and_grad", "forward", "save_params"),
    "data": ("batches", "load_idx_dataset", "partition_heterogeneous", "gen_synthetic_2d"),
    "risk": ("composite_grads",),
    "charts": ("line_chart", "bar_chart", "decision_boundary_chart"),
}
# Class -> the name its constructions are reported under (the layer that builds it).
CLASSES = {"models.ModelParams": "models.ModelParams",
           "models.Batch": "data.Batch",
           "data.Dataset": "data.Dataset"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dataset_bytes = 0
        self._open = []  # child time accumulated by each active traced call

    def wrap(self, name, fn):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_.pop()
                calls[name] += 1
                if open_:
                    open_[-1] += elapsed
        return traced

    def count(self, name, cls):
        original = cls.__post_init__
        tracer = self

        def post_init(obj):
            original(obj)
            tracer.calls[name] += 1
            if name == "data.Dataset":
                tracer.dataset_bytes += obj.features.nbytes + obj.labels.nbytes
        cls.__post_init__ = post_init

    def install(self):
        """Patch the imported ramfed package; call before the first job."""
        modules = [m for key, m in sys.modules.items()
                   if key == "ramfed" or key.startswith("ramfed.")]
        for short, names in FUNCTIONS.items():
            module = sys.modules[f"ramfed.{short}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        for path, name in CLASSES.items():
            short, cls = path.split(".")
            self.count(name, getattr(sys.modules[f"ramfed.{short}"], cls))

    def metrics(self) -> dict:
        """calls, self_s and construction counts under their reported names."""
        out = {}
        for short, names in FUNCTIONS.items():
            for name in names:
                key = f"{short}.{name}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
        for name in CLASSES.values():
            out[f"{name}.constructed"] = self.calls[name]
        out["data.Dataset.bytes"] = self.dataset_bytes
        return out
