"""In-memory span and call-count tracing of the condfield modules.

Tracing is installed from outside the package: every public function of the
six library modules is replaced, wherever a condfield module has bound it, by
a wrapper. Functions at layer boundaries get a timed span; all others only
count calls, so their time stays in the self time of the span that called
them. Stats are kept per name as [calls, inclusive seconds, seconds spent in
direct child spans]; self time is inclusive minus child time.
"""

import functools
import importlib
import inspect
import time

MODULES = ("grid", "covariance", "functionals", "sampling", "concentration", "cli")

# Layer boundaries timed as spans, by module-level name. "SqrtFactor.apply" is
# the dense matvec every draw goes through.
SPANS = {
    "covariance": ("assemble", "sqrt_factor", "SqrtFactor.apply"),
    "functionals": ("constants", "profile"),
    "sampling": ("substream", "white_noise", "sample_t_u", "sample_conditional"),
    "concentration": ("distance_record", "sweep", "verify_prop1"),
    "cli": ("main",),
}

# Public methods counted besides module-level functions.
COUNTED_METHODS = {"covariance": ("CovOperator.apply",)}

SPAN_LABELS = {"covariance.SqrtFactor.apply": "covariance.apply"}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._open = []  # child seconds accumulated by each open span

    def span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def counter(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer, package="condfield"):
    """Wrap the package's public functions in place."""
    modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
    replaced = {}  # id(original) -> wrapper
    for mod_name, module in modules.items():
        spans = SPANS.get(mod_name, ())
        for name, fn in _public_functions(module):
            label = f"{mod_name}.{name}"
            wrap = tracer.span if name in spans else tracer.counter
            replaced[id(fn)] = wrap(label, fn)
        for qual in spans + COUNTED_METHODS.get(mod_name, ()):
            if "." not in qual:
                continue
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            label = SPAN_LABELS.get(f"{mod_name}.{qual}", f"{mod_name}.{qual}")
            wrap = tracer.span if qual in spans else tracer.counter
            setattr(cls, meth, wrap(label, getattr(cls, meth)))
    # Rebind every name a condfield module holds for a wrapped function,
    # including names imported with "from .grid import l2_norm".
    for module in [importlib.import_module(package), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, attr, replaced[id(obj)])
