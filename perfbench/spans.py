"""Spans recorded from outside the program, around calls into its layers.

`install(tracer)` replaces public functions and methods of the mtpretrain
modules with wrappers that record one span per call: its name, start, end
(process CPU time, like the end-to-end step times) and the span that was
open when it started. Spans stay in memory until the
run ends. A layer's self time is its span's duration minus the durations
of its direct child spans, so the self times of all spans inside a step
add up to the step's traced time.

Every wrapped binding is restored by `uninstall`. A binding that does not
exist in the program being measured is an error that names it: a layer
that silently lost its spans would read as a faster layer.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, span name). Several bindings of one function (the
# module's own and the names other modules imported) share one span name.
FUNCTION_SPANS = [
    ("corpus", "build_corpus", "corpus.build"),
    ("corpus", "load_corpus", "corpus.load"),
    ("trainer", "load_corpus", "corpus.load"),
    ("corpus", "encode_sentence", "tokenizer.encode"),
    ("scheduler", "make_schedule", "scheduler.make_schedule"),
    ("taskbuild", "assemble_batch", "taskbuild.assemble"),
    ("trainer", "assemble_batch", "taskbuild.assemble"),
    ("losses", "batch_losses", "losses.batch_losses"),
    ("losses", "combine_losses", "losses.combine_losses"),
    ("tensor", "save_checkpoint", "tensor.save_checkpoint"),
    ("tensor", "load_checkpoint", "tensor.load_checkpoint"),
    ("trainer", "train", "trainer.train"),
]

METHOD_SPANS = [
    ("model", "Model", "embed", "model.embed"),
    ("model", "Model", "encode", "model.encode"),
    ("model", "Model", "head_forward", "model.heads"),
    ("model", "Model", "pool", "model.heads"),
    ("model", "Model", "cls_rows", "model.heads"),
    ("tensor", "Tensor", "backward", "tensor.backward"),
    ("tensor", "Adam", "step", "tensor.adam"),
]

# Public tensor ops, as (owner, attribute, op name). Operators are bound
# under several dunder names; each binding is wrapped.
OP_NAMES = ("matmul", "add", "mul", "layer_norm", "gelu", "softmax",
            "dropout", "index_rows", "concat", "cross_entropy",
            "normalize_rows")
OP_SPANS = [
    ("Tensor", "matmul", "matmul"), ("Tensor", "__matmul__", "matmul"),
    ("Tensor", "__add__", "add"), ("Tensor", "__radd__", "add"),
    ("Tensor", "__mul__", "mul"), ("Tensor", "__rmul__", "mul"),
    (None, "layer_norm", "layer_norm"), (None, "gelu", "gelu"),
    (None, "softmax", "softmax"), (None, "dropout", "dropout"),
    (None, "index_rows", "index_rows"), (None, "concat", "concat"),
    (None, "cross_entropy", "cross_entropy"),
    (None, "normalize_rows", "normalize_rows"),
]

TAPE_WALK = "bench.tape_walk"
LOSS_EVAL = "tensor.loss_eval"


class Tracer:
    """In-memory span store: parallel lists indexed by span number."""

    def __init__(self):
        self.names: "list[str]" = []
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self.parents: "list[int]" = []
        self.tape: "list[tuple[int, int]]" = []   # (nodes, bytes) per backward
        self.measured_from = 0        # first span of the measured rounds
        self.tape_from = 0
        self._open: "list[int]" = []
        self._restore: "list[tuple[object, str, object]]" = []

    def mark(self) -> None:
        """Spans from here on belong to the measured rounds."""
        self.measured_from = len(self.names)
        self.tape_from = len(self.tape)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.process_time())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.process_time()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"cannot trace {name}: "
                                 f"{owner.__name__}.{attr} is missing")
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def record_tape(self, loss) -> None:
        """Count the nodes reachable from loss through Tensor.parents."""
        idx = self.begin(TAPE_WALK)
        seen = {id(loss)}
        stack = [loss]
        nbytes = 0
        while stack:
            node = stack.pop()
            nbytes += node.data.nbytes
            for p in node.parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        self.tape.append((len(seen), nbytes))
        self.end(idx)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def install(tracer: Tracer, pkg) -> None:
    """Wrap the layer boundaries of the imported mtpretrain package."""
    for mod_name, attr, name in FUNCTION_SPANS:
        tracer.wrap(getattr(pkg, mod_name), attr, name)
    for mod_name, cls_name, attr, name in METHOD_SPANS:
        before = None
        if attr == "backward":
            def before(args, kwargs):
                tracer.record_tape(args[0])
        tracer.wrap(getattr(getattr(pkg, mod_name), cls_name), attr, name,
                    before=before)
    for owner_name, attr, op in OP_SPANS:
        owner = pkg.tensor if owner_name is None \
            else getattr(pkg.tensor, owner_name)
        tracer.wrap(owner, attr, f"tensor.op.{op}")


# ----------------------------------------------------------------- analysis

def self_times(tracer: Tracer) -> "list[float]":
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            own[p] -= tracer.ends[i] - tracer.starts[i]
    return own


def descendants_by_root(tracer: Tracer, roots: "list[int]") -> "dict[int, int]":
    """Map every span below one of roots to that root."""
    owner = {r: r for r in roots}
    out = {}
    for i, p in enumerate(tracer.parents):
        if p in owner:
            owner[i] = owner[p]
            out[i] = owner[p]
    return out
