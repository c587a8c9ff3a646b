"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions of every unlearnlab module from
outside the library: each function is replaced at every place it is
looked up (the defining module, every module that imported it by name,
module-level tables such as ``model.ACTIVATIONS``, and the package
namespace), and ``GradTape.gradient`` and ``ModelParameters.replace``
are wrapped on their classes. A wrapped call records one span: name,
start, end, parent span and the benchmark op it belongs to. Spans stay
in memory and are written out once the run ends.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the self times of all layers plus the benchmark's
own ``bench`` spans add up to the traced wall time exactly. The garbage
collector's runs inside traced rounds are counted and timed too
(``gc.*``); their time also stays in the self time of the layer that
was running.
"""
from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("tensor", "model", "losses", "data", "engine", "evaluation", "cli")

TENSOR_OPS = (
    "matmul", "transpose", "add", "subtract", "multiply", "relu", "tanh",
    "exp", "log", "reduce_sum", "mean", "l2_normalize",
)

# Public functions wrapped per layer; the layer is also the module name.
FUNCTIONS = {
    "tensor": TENSOR_OPS,
    "model": (
        "encode", "head_logits", "forward", "predict_labels", "init_parameters",
        "save_checkpoint", "load_checkpoint",
    ),
    "losses": (
        "build_contrast_sets", "sample_unlearn_loss", "class_unlearn_loss",
        "cross_entropy_loss", "combined_loss",
    ),
    "data": (
        "generate_synthetic", "standardize_pair", "save_csv", "load_csv",
        "make_task", "batches", "sample_remaining",
    ),
    "engine": (
        "train", "retrain", "unlearn_contrastive", "unlearn_finetune",
        "unlearn_neggrad", "check_termination_class", "check_termination_sample",
    ),
    "evaluation": (
        "accuracy", "evaluate", "embedding_geometry", "attack_features",
        "fit_attack_model", "mia_train", "mia_member_rate", "run_mia",
    ),
    "cli": ("main", "cmd_gen_data", "cmd_train", "cmd_unlearn", "cmd_eval", "cmd_mia"),
}

# (layer, class, method) wrapped on the class itself.
METHODS = (("tensor", "GradTape", "gradient"), ("model", "ModelParameters", "replace"))

ENGINE_RUNS = ("train", "retrain", "unlearn_contrastive", "unlearn_finetune", "unlearn_neggrad")


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent_index, op_id].
        self.spans: list[list] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.outer_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False
        self.op_id = -1
        self.missing: list[str] = []
        self._open: list[list] = []
        self._depth: Counter = Counter()
        self._last_error: BaseException | None = None
        self._patches: list[tuple] = []
        self._gc_start = 0

    # -- span bookkeeping -------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self._open.append([len(self.spans) - 1, 0])
        self._depth[name.partition(".")[0]] += 1

    def end(self) -> None:
        end = time.perf_counter_ns()
        index, child_ns = self._open.pop()
        span = self.spans[index]
        span[2] = end
        name = span[0]
        layer = name.partition(".")[0]
        duration = end - span[1]
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.outer_ns[layer] += duration
        if self._open:
            self._open[-1][1] += duration

    def _raised(self, exc: BaseException) -> None:
        # An exception passes every enclosing span; count it once.
        if exc is not self._last_error:
            self._last_error = exc
            self.counts["raised." + type(exc).__name__] += 1

    def traced(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._raised(exc)
                raise
            finally:
                tracer.end()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value, is_dict=False):
        old = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self, package) -> None:
        """Wrap every public function at every place it is looked up."""
        self.missing = []
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS
        ]
        hooks = self._hooks()
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self.traced(f"{layer}.{fname}", original, hooks.get(fname))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    self._set(value, dkey, wrapped, is_dict=True)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls_name)
            original = cls.__dict__.get(meth)
            if original is None:
                self.missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, self.traced(f"{layer}.{meth}", original, hooks.get(meth)))
        tensor_cls = importlib.import_module(f"{package.__name__}.tensor").Tensor
        init = tensor_cls.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.counts["tensor.tensors_created"] += 1
            init(obj, *args, **kwargs)

        self._set(tensor_cls, "__init__", counted_init)
        gc.callbacks.append(self._collection)

    def _collection(self, phase: str, info: dict) -> None:
        """Count the garbage collector's runs and time inside traced rounds."""
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.ns"] += time.perf_counter_ns() - self._gc_start

    def uninstall(self) -> None:
        gc.callbacks.remove(self._collection)
        for owner, key, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- counters taken at the span boundaries ----------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def encode_rows(args, result):
            counts["model.encode_rows"] += result.shape[0]

        def accuracy_rows(args, result):
            counts["evaluation.accuracy_rows"] += len(args[1])

        def csv_rows(args, result):
            counts["data.load_csv_rows"] += len(result)

        def tape_entries(args, result):
            counts["tensor.tape_entries"] += len(args[0])

        def saved_bytes(args, result):
            counts["model.ckpt_bytes"] += Path(args[1]).stat().st_size

        def loaded_bytes(args, result):
            counts["model.ckpt_bytes"] += Path(args[0]).stat().st_size

        def engine_record(args, result):
            # retrain calls train: count a run once, at its outermost span.
            if self._depth["engine"]:
                return
            record = result[1]
            counts["engine.gradient_steps"] += record.gradient_steps
            counts["engine.batches_processed"] += record.batches_processed
            for row in record.rows:
                counts["engine.skipped_steps"] += row.get("skipped_steps", 0)
                counts["engine.termination_evals"] += row.get("kind") == "evaluation"

        hooks = {
            "encode": encode_rows,
            "accuracy": accuracy_rows,
            "load_csv": csv_rows,
            "gradient": tape_entries,
            "save_checkpoint": saved_bytes,
            "load_checkpoint": loaded_bytes,
        }
        hooks.update({name: engine_record for name in ENGINE_RUNS})
        return hooks

    # -- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, every count and time given per round."""

        def secs(*names):
            return sum(self.total_ns[n] for n in names) / 1e9 / rounds

        def calls(*names):
            return sum(self.calls[n] for n in names) / rounds

        def count(name):
            return self.counts[name] / rounds

        def layer_self(layer):
            return sum(ns for n, ns in self.self_ns.items() if n.startswith(layer + ".")) / 1e9 / rounds

        ops = [f"tensor.{op}" for op in TENSOR_OPS]
        steps = self.counts["engine.gradient_steps"]
        gradient_calls = self.calls["tensor.gradient"]
        no_anchor = self.counts["raised.NoValidAnchorError"]
        engine_step_ns = self.outer_ns["engine"] - self.total_ns["evaluation.accuracy"]
        out = {
            "tensor.op_calls": calls(*ops),
            "tensor.op_self_s": sum(self.self_ns[n] for n in ops) / 1e9 / rounds,
            "tensor.tensors_created": count("tensor.tensors_created"),
            "tensor.gradient_calls": calls("tensor.gradient"),
            "tensor.gradient_s": secs("tensor.gradient"),
            "tensor.tape_entries_per_step": (
                self.counts["tensor.tape_entries"] / gradient_calls if gradient_calls else 0.0
            ),
            "tensor.nonfinite_raised": count("raised.NonFiniteError"),
            "model.encode_calls": calls("model.encode"),
            "model.encode_rows": count("model.encode_rows"),
            "model.encode_s": secs("model.encode"),
            "model.forward_s": secs("model.forward"),
            "model.update_calls": calls("model.replace"),
            "model.update_s": secs("model.replace"),
            "model.ckpt_save_s": secs("model.save_checkpoint"),
            "model.ckpt_load_s": secs("model.load_checkpoint"),
            "model.ckpt_bytes": count("model.ckpt_bytes"),
            "losses.contrast_sets_calls": calls("losses.build_contrast_sets"),
            "losses.contrast_sets_s": secs("losses.build_contrast_sets"),
            "losses.unlearn_term_s": secs("losses.class_unlearn_loss", "losses.sample_unlearn_loss"),
            "losses.ce_s": secs("losses.cross_entropy_loss"),
            "losses.no_valid_anchor": no_anchor / rounds,
            "data.batches_s": secs("data.batches"),
            "data.sample_remaining_calls": calls("data.sample_remaining"),
            "data.sample_remaining_s": secs("data.sample_remaining"),
            "data.make_task_s": secs("data.make_task"),
            "data.load_csv_s": secs("data.load_csv"),
            "data.load_csv_rows": count("data.load_csv_rows"),
            "data.save_csv_s": secs("data.save_csv"),
            "engine.gradient_steps": steps / rounds,
            "engine.batches_processed": count("engine.batches_processed"),
            "engine.skipped_steps": count("engine.skipped_steps"),
            "engine.termination_evals": count("engine.termination_evals"),
            "engine.step_us": engine_step_ns / 1e3 / steps if steps else 0.0,
            "engine.useful_step_ratio": steps / (steps + no_anchor) if steps else 0.0,
            "evaluation.accuracy_calls": calls("evaluation.accuracy"),
            "evaluation.accuracy_rows": count("evaluation.accuracy_rows"),
            "evaluation.accuracy_s": secs("evaluation.accuracy"),
            "evaluation.geometry_s": secs("evaluation.embedding_geometry"),
            "evaluation.attack_fit_s": secs("evaluation.fit_attack_model"),
            "evaluation.mia_s": secs("evaluation.run_mia"),
            "cli.eval_s": secs("cli.cmd_eval"),
            "cli.mia_s": secs("cli.cmd_mia"),
            "gc.collections": count("gc.collections"),
            "gc.s": self.counts["gc.ns"] / 1e9 / rounds,
        }
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = layer_self(layer)
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")
