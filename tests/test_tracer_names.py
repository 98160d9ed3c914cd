"""The benchmark tracer wraps kljn functions by name: each of those names must resolve, and take its layer's count."""

import importlib
import inspect

from traced import load_tracer


def resolve(module_name, attr):
    """The function the tracer wraps for ``(module_name, attr)``, or None where there is none."""
    owner = importlib.import_module(f"kljn.{module_name}")
    # the tracer reads a method from the class's own __dict__ and a function from its module
    *cls_name, name = attr.split(".")
    if cls_name:
        owner = getattr(owner, cls_name[0], None)
        return vars(owner).get(name) if owner is not None else None
    fn = getattr(owner, name, None)
    return fn if callable(fn) else None


def test_every_traced_name_resolves():
    names = [target for targets in load_tracer().LAYERS.values() for target in targets]
    assert names
    missing = [f"kljn.{module_name}.{attr}" for module_name, attr in names if resolve(module_name, attr) is None]
    assert missing == []


def test_counted_layers_bind_their_count_parameters():
    """Each traced function of a counted layer takes the named parameters of its layer's count function.

    The tracer calls the count function with the traced call's own
    arguments, so a function whose signature no longer matches them fails
    its first traced call. Count functions of ``*args, **kwargs`` alone read
    what they are given and bind any call.
    """
    tracer = load_tracer()
    checked = {}
    for layer, count in tracer._COUNTS.items():
        params = [p.name for p in inspect.signature(count).parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
        if not params:
            continue
        for module_name, attr in tracer.LAYERS[layer]:
            signature = inspect.signature(resolve(module_name, attr))
            signature.bind(*params)
            signature.bind(**dict.fromkeys(params))
            checked[f"{module_name}.{attr}"] = tuple(params)
    assert checked == {
        "noise.synth_band_limited": ("spec", "rng"),
        "estimator.measure_period": ("u_c", "i_c"),
    }
