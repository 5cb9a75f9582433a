"""Stable JSON forms for outcomes, certificates, models, and conflicts.

All dictionaries use sorted keys and deterministic list orders, so
serialized output is byte-identical across runs.  `dumps` prints each
object as one line; `python -m json.tool` indents it for reading.
"""

from __future__ import annotations

import json

from .onetypes import (
    ExtendedType, one_type_from_symbols, render_extended_type, type_symbols)
from .solver import Certificate
from .witness import WitnessDescriptor


def state_label(state, sig):
    if isinstance(state, ExtendedType):
        return render_extended_type(state, sig)
    return type_symbols(state, sig)


def descriptor_to_json(d, sentence):
    part = {v: d.partition[i] for i, v in enumerate(sentence.prefix_vars)}
    sig = sentence.signature
    return {
        "partition": part,
        "class_types": {str(c): type_symbols(t, sig)
                        for c, t in enumerate(d.class_types)},
        "atom_values": [
            {"rel": name, "classes": list(classes), "value": v}
            for name, classes, v in d.atom_values
        ],
        "padding_count": d.padding_count,
    }


def _exact(value, kind):
    """`value` if its type is exactly `kind`: JSON true is no integer."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _keyed(obj, keys, what):
    """`obj` if its keys are exactly the strings of `keys`, a sized
    collection such as a range, else ValueError."""
    if len(obj) != len(keys) or any(str(k) not in obj for k in keys):
        raise ValueError(f"{what} has keys {sorted(obj)}")
    return obj


def descriptor_from_json(obj, sentence):
    sig = sentence.signature
    vs = sentence.prefix_vars
    partition = _keyed(obj["partition"], vs, "partition")
    part = tuple(_exact(partition[v], int) for v in vs)
    nclasses = max(part) + 1 if part else 0
    class_types = _keyed(obj["class_types"], range(nclasses), "class_types")
    class_states = tuple(one_type_from_symbols(class_types[str(c)], sig)
                         for c in range(nclasses))
    atom_values = tuple(sorted(
        (_exact(av["rel"], str), tuple(_exact(c, int) for c in av["classes"]),
         _exact(av["value"], bool))
        for av in obj["atom_values"]))
    return WitnessDescriptor(
        partition=part, class_states=class_states, atom_values=atom_values,
        padding_count=_exact(obj["padding_count"], int))


def certificate_to_json(cert, sentence):
    sig = sentence.signature
    return {
        "pi0": type_symbols(cert.pi0, sig),
        "strategy": [
            {"type": type_symbols(pi, sig),
             "descriptor": descriptor_to_json(d, sentence)}
            for pi, d in cert.strategy
        ],
    }


def certificate_from_json(obj, sentence):
    sig = sentence.signature
    entries = [
        (one_type_from_symbols(e["type"], sig),
         descriptor_from_json(e["descriptor"], sentence))
        for e in obj["strategy"]
    ]
    entries.sort(key=lambda e: e[0].index())
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if a == b:
            raise ValueError(f"strategy lists type {type_symbols(a, sig)} twice")
    return Certificate(
        pi0=one_type_from_symbols(obj["pi0"], sig),
        strategy=tuple(entries))


def refutation_to_json(traces, sig):
    return {
        "candidates": [
            {
                "pi0": state_label(tr.pi0, sig),
                "rounds": [
                    {"round": r,
                     "eliminated": [state_label(s, sig) for s in removed]}
                    for r, removed in tr.rounds
                ],
                "surviving": [state_label(s, sig) for s in tr.surviving],
            }
            for tr in traces
        ]
    }


def outcome_to_json(outcome, sentence, with_timings=False):
    sig = sentence.signature
    stats = outcome.stats
    return {
        "verdict": outcome.verdict,
        "method": outcome.method,
        "pi0": type_symbols(outcome.pi0, sig) if outcome.pi0 is not None else None,
        "certificate": (certificate_to_json(outcome.certificate, sentence)
                        if outcome.certificate is not None else None),
        "refutation": (refutation_to_json(outcome.refutation, sig)
                       if outcome.refutation is not None else None),
        "stats": {
            "witness_searches": stats.witness_searches,
            "cache_hits": stats.cache_hits,
            # timings vary run to run; suppressed unless explicitly requested
            "elapsed_ms": stats.elapsed_ms if with_timings else None,
            "types_total": stats.types_total,
        },
    }


def structure_to_json(structure):
    return {
        "universe_size": structure.size,
        "extents": {
            name: sorted(list(t) for t in structure.extents.get(name, frozenset()))
            for name, _ in structure.signature
        },
    }


def staged_to_json(staged, sentence):
    sig = sentence.signature
    return {
        "stages": [structure_to_json(st) for st in staged.stages],
        "b0": staged.b0,
        "glue": [
            {"stage": g.stage, "b": g.b,
             "type": type_symbols(g.pi, sig),
             "element_map": {str(c): e for c, e in g.element_map}}
            for g in staged.glue
        ],
    }


def conflict_to_json(conflict):
    return {
        "stage": conflict.stage,
        "element": conflict.element,
        "relation": conflict.relation,
        "tuple": list(conflict.tuple_),
        "required": conflict.required,
        "existing": conflict.existing,
    }


def dumps(obj):
    """`obj` as one line of JSON with sorted keys, plus a newline.

    With no `indent`, the json module prints through its C encoder.
    """
    return json.dumps(obj, sort_keys=True) + "\n"
