"""Build schedules shared by both condition families.

A family lists its grow operations in a table ``STEPS: op name ->
(request class, apply)``. ``parse_schedule`` reads a spec's JSON schedule
through that table and ``run_schedule`` applies the requests in order.
``apply(cur, req, env)`` returns the grown condition and the extra fields
of the step's record. The driver reads the limits, checks the step count
and every grown side, keeps the chain and writes the records. An apply
whose request could ask for a far larger window checks the side it asks
for before building, with the same ``errors.check_side``. An apply calls
its step function through a module global, so wrappers installed on the
family module see every step. ``certificate_class`` makes each family's
certificate type, the record of one build that the family's verifier
re-checks, and ``report`` the verifier's answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, make_dataclass
from itertools import chain

from .errors import ResourceLimitError, check_side
from .geometry import Box


@dataclass(frozen=True)
class Cover:
    g: tuple


def is_int(v):
    """v is a JSON integer (not a float, a string or a bool)."""
    return type(v) is int


def is_point(v):
    """v is a JSON point: a list of two integers."""
    return isinstance(v, list) and len(v) == 2 and is_int(v[0]) and is_int(v[1])


def read_int(v, where):
    """The JSON integer v; anything else raises ValueError naming ``where``."""
    if not is_int(v):
        raise ValueError(f"{where}: expected an integer")
    return v


def read_point(v, where):
    """The JSON point v as (x, y); anything else raises ValueError naming ``where``."""
    if not is_point(v):
        raise ValueError(f"{where}: expected two integers")
    return tuple(v)


def read_bool(v, where):
    """The JSON boolean v; anything else raises ValueError naming ``where``."""
    if type(v) is not bool:
        raise ValueError(f"{where}: expected a boolean")
    return v


def read_points(v, where):
    """The JSON list of points v as a set of (x, y) tuples: a Box when v
    lists exactly one box's cells in lex order, which is how witness sets
    are written, and a frozenset otherwise."""
    # is_point over the whole list, with the loops in C: witness sets run to
    # tens of thousands of points.
    if not (isinstance(v, list) and set(map(type, v)) <= {list} and set(map(len, v)) <= {2}
            and set(map(type, chain.from_iterable(v))) <= {int}):
        raise ValueError(f"{where}: expected a list of points")
    return Box.from_lex(v) or frozenset(map(tuple, v))


def _read(kind, v, where):
    """A request field's JSON value (None when missing), checked against the
    field's annotation. String fields are checked by their request class."""
    if kind == "tuple":
        return read_point(v, where)
    if kind == "int":
        return read_int(v, where)
    return v


def parse_schedule(entries, steps):
    """Request objects for a spec's JSON schedule. A malformed entry raises
    ValueError naming its path, e.g. ``schedule[0].t: expected two
    integers``."""
    if not isinstance(entries, list):
        raise ValueError("schedule: expected a list of steps")
    sched = []
    for i, entry in enumerate(entries):
        where = f"schedule[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object with an 'op'")
        op = entry.get("op")
        if not isinstance(op, str) or op not in steps:
            raise ValueError(f"{where}.op: unknown op {op!r}")
        cls = steps[op][0]
        args = {f.name: _read(f.type, entry.get(f.name), f"{where}.{f.name}")
                for f in fields(cls)}
        try:
            sched.append(cls(**args))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return sched


def run_schedule(start, sched, limits, steps, **env):
    """Apply the requests in order, starting from ``start``; ``env`` goes
    to every apply, with ``max_side`` added. Returns the chain of
    conditions, the step records and the limits as used."""
    max_side = read_int(limits["max_side"], "limits.max_side")
    max_steps = read_int(limits["max_steps"], "limits.max_steps")
    if len(sched) > max_steps:
        raise ResourceLimitError(
            f"schedule has {len(sched)} steps, limit is {max_steps}"
        )
    env["max_side"] = max_side
    by_class = {cls: (op, apply) for op, (cls, apply) in steps.items()}
    chain = [start]
    records = []
    for req in sched:
        if type(req) not in by_class:
            raise ValueError(f"unknown build step {req!r}")
        op, apply = by_class[type(req)]
        cur, extra = apply(chain[-1], req, env)
        check_side(max(cur.p.rect.width, cur.p.rect.height), max_side)
        chain.append(cur)
        args = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(req).items()}
        records.append({"req": {"op": op, **args}, **extra})
    return chain, records, {"max_side": max_side, "max_steps": max_steps}


def report(checks):
    """A verifier's report from its (name, ok) checks, in order: each check
    by name, and ok when all of them pass."""
    checks = [{"name": name, "ok": ok} for name, ok in checks]
    return {"ok": all(ch["ok"] for ch in checks), "checks": checks}


def certificate_class(name, kind, condition, extra=()):
    """The certificate dataclass of one family, tagged ``kind`` in JSON: the
    seed and final conditions, the step records and ``extra`` record lists,
    the limits as used, and the chain of conditions (in memory only)."""
    lists = ("steps", *extra)

    def to_json(self):
        out = {"kind": kind, "seed": self.seed.to_json(), "final": self.final.to_json()}
        out.update((key, getattr(self, key)) for key in (*lists, "limits"))
        return out

    def from_json(cls, data):
        if data.get("kind") != kind:
            raise ValueError(f'kind: expected "{kind}"')
        seed, final = (condition.from_json(data[key], key) for key in ("seed", "final"))
        return cls(seed, final, *(list(data[key]) for key in lists), dict(data["limits"]))

    chain = field(default=(), compare=False, repr=False)
    cert_fields = [("seed", condition), ("final", condition), *((k, list) for k in lists),
                   ("limits", dict), ("chain", tuple, chain)]
    # Each class holds its own to_json and from_json, so a wrapper installed
    # on one family's class leaves the other's alone.
    namespace = {"__module__": condition.__module__, "to_json": to_json,
                 "from_json": classmethod(from_json)}
    return make_dataclass(name, cert_fields, namespace=namespace)
