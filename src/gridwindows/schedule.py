"""Build schedules shared by both condition families.

A family declares each grow operation once, as a row of its table ``STEPS:
op name -> (request class, grow, claim name, claim check)``.
``parse_schedule`` reads a spec's JSON schedule through that table,
``run_schedule`` applies the requests in order and writes the step records,
and ``check_steps`` reads the records back for the verifier. ``grow(cur,
req, env)`` returns the grown condition and the extra fields of the step's
record. ``run_schedule`` reads the limits, checks the step count and every
grown side and keeps the chain. A grow whose request could ask for a far
larger window checks that side before building, with ``errors.check_side``,
and calls its step function through a module global, so wrappers installed
on the family module see every step. ``certificate_class`` makes each
family's certificate type, the record of one build that the family's
verifier re-checks, and ``report`` the verifier's answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, make_dataclass
from itertools import chain

from .errors import ResourceLimitError, check_side
from .geometry import Box


@dataclass(frozen=True)
class Cover:
    g: tuple


def covered(final, req, rec, env):
    return final.p.rect.contains(req.g)


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


def read_list(v, where):
    """The JSON list v; anything else raises ValueError naming ``where``."""
    if not isinstance(v, list):
        raise ValueError(f"{where}: expected a list")
    return list(v)


def read_limits(v, defaults=None):
    """The JSON limits object v as {"max_side": int, "max_steps": int}, a
    missing limit taken from ``defaults``. Anything else raises ValueError
    naming its path, e.g. ``limits.max_side: expected an integer``."""
    if not isinstance(v, dict):
        raise ValueError("limits: expected an object")
    v = {**(defaults or {}), **v}
    return {key: read_int(v.get(key), f"limits.{key}") for key in ("max_side", "max_steps")}


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


def _request(entry, steps, where):
    """The request object of one JSON schedule entry; a malformed entry raises
    ValueError naming ``where``, e.g. ``schedule[0].t: expected two integers``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object with an 'op'")
    op = entry.get("op")
    if not isinstance(op, str) or op not in steps:
        raise ValueError(f"{where}.op: unknown op {op!r}")
    cls = steps[op][0]
    args = {f.name: _read(f.type, entry.get(f.name), f"{where}.{f.name}") for f in fields(cls)}
    try:
        return cls(**args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_schedule(entries, steps):
    """Request objects for a spec's JSON schedule, read by ``_request``."""
    if not isinstance(entries, list):
        raise ValueError("schedule: expected a list of steps")
    return [_request(entry, steps, f"schedule[{i}]") for i, entry in enumerate(entries)]


def run_schedule(start, sched, limits, steps, **env):
    """Apply the requests in order, starting from ``start``; ``env`` goes
    to every grow, with ``max_side`` added. Returns the chain of
    conditions, the step records and the limits as used."""
    limits = read_limits(limits)
    max_side, max_steps = limits["max_side"], limits["max_steps"]
    if len(sched) > max_steps:
        raise ResourceLimitError(
            f"schedule has {len(sched)} steps, limit is {max_steps}"
        )
    env["max_side"] = max_side
    by_class = {cls: (op, grow) for op, (cls, grow, *_claim) in steps.items()}
    chain = [start]
    records = []
    for req in sched:
        if type(req) not in by_class:
            raise ValueError(f"unknown build step {req!r}")
        op, grow = by_class[type(req)]
        cur, extra = grow(chain[-1], req, env)
        check_side(max(cur.p.rect.width, cur.p.rect.height), max_side)
        chain.append(cur)
        args = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(req).items()}
        records.append({"req": {"op": op, **args}, **extra})
    return chain, records, limits


def check_steps(records, steps, final, env):
    """One (name, ok) check per step record: its request read back by
    ``_request``, then its row's claim ``check(final, req, record, env)``.
    The name is the row's claim name formatted with the request's JSON
    fields. A record of no known op, or whose request does not read, fails."""
    for i, rec in enumerate(records):
        entry = rec.get("req") if isinstance(rec, dict) else None
        op = entry.get("op") if isinstance(entry, dict) else None
        if not isinstance(op, str) or op not in steps:
            yield f"steps[{i}] unknown op {op!r}", False
            continue
        cls, _grow, name, claim = steps[op]
        try:
            req = _request(entry, steps, f"steps[{i}].req")
        except ValueError:
            req = None
        ok = req is not None and claim(final, req, rec, env)
        yield name.format(**{f.name: entry.get(f.name) for f in fields(cls)}), ok


def within_limits(cert):
    """The certificate's final window and step count are within its limits."""
    rect = cert.final.p.rect
    return (max(rect.width, rect.height) <= cert.limits["max_side"]
            and len(cert.steps) <= cert.limits["max_steps"])


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
        return cls(seed, final, *(read_list(data.get(key), key) for key in lists),
                   read_limits(data.get("limits")))

    chain = field(default=(), compare=False, repr=False)
    cert_fields = [("seed", condition), ("final", condition), *((k, list) for k in lists),
                   ("limits", dict), ("chain", tuple, chain)]
    # Each class holds its own to_json and from_json, so a wrapper installed
    # on one family's class leaves the other's alone.
    namespace = {"__module__": condition.__module__, "to_json": to_json,
                 "from_json": classmethod(from_json)}
    return make_dataclass(name, cert_fields, namespace=namespace)
