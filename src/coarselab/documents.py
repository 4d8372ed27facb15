"""Instance documents: the JSON surface of the toolkit.

Documents are plain JSON with integer-only numerics; infinities appear
only as the string sentinel "inf".  Every structure under test is
described declaratively and rebuilt here; names let queries and maps
refer to structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from . import lineset as ls
from .backends import (
    ExplicitBackend,
    FiniteBackend,
    FromASRBackend,
    LSRBackend,
    MetricLineBackend,
    PartitionCoarseBackend,
    TopoTraceBackend,
)
from .dimension import Cover
from .maps import ExplicitMap, LineMap
from .setcore import Family, Subset, Universe
from .structures import (
    ExplicitASR,
    ExplicitCoarse,
    ExplicitLSR,
    ExplicitNearness,
    ExplicitProximity,
    discrete_closure,
)

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """The document does not follow the instance schema."""


@dataclass
class InstanceDocument:
    space: dict
    structures: list[dict] = field(default_factory=list)
    covers: list[dict] = field(default_factory=list)
    maps: list[dict] = field(default_factory=list)
    queries: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)

    @property
    def scale_budget(self) -> int:
        return self._budget("scale", 32)

    @property
    def window(self) -> int:
        return self._budget("window", 10**5)

    def _budget(self, key: str, default: int) -> int:
        value = _integer(self.budgets.get(key, default), f"budgets.{key}")
        if value < 0:
            raise SchemaError(f"budgets.{key} must be nonnegative, not {value}")
        return value

    @property
    def asdim_windows(self) -> list[int]:
        windows = self.budgets.get("asdim_windows", [16, 32, 64, 128, 256, 512])
        return [_integer(n, "budgets.asdim_windows") for n in _list(windows, "budgets.asdim_windows")]

    def universe(self) -> Universe:
        if self.space.get("kind") != "finite":
            raise SchemaError("document space is not a finite universe")
        return Universe(tuple(self.space["elements"]))

    def structure(self, name: str) -> dict:
        for s in self.structures:
            if s.get("name") == name:
                return s
        raise SchemaError(f"no structure named {name!r}")


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value: Any, name: str) -> int:
    if not _is_integer(value):
        raise SchemaError(f"{name} must be an integer, not {value!r}")
    return value


def load_document(text: str) -> InstanceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise SchemaError("document must be a JSON object")
    if raw.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported document version {raw.get('version')!r}")
    space = raw.get("space")
    if not isinstance(space, dict) or space.get("kind") not in ("finite", "nat-line"):
        raise SchemaError("space must be finite (with elements) or nat-line")
    if space["kind"] == "finite":
        elements = space.get("elements")
        if (
            not isinstance(elements, list)
            or not elements
            or not all(isinstance(x, str) for x in elements)
        ):
            raise SchemaError("finite space needs a nonempty list of string elements")
        if len(set(elements)) < len(elements):
            raise SchemaError("finite space elements must be distinct")
    for key in ("queries", "budgets"):
        if not isinstance(raw.get(key, {}), dict):
            raise SchemaError(f"{key} must be an object")
    doc = InstanceDocument(
        space=space,
        structures=raw.get("structures", []),
        covers=raw.get("covers", []),
        maps=raw.get("maps", []),
        queries=raw.get("queries", {}),
        budgets=raw.get("budgets", {}),
    )
    for s in objects(doc.structures, "structures"):
        if "type" not in s:
            raise SchemaError("each structure needs a type")
    _check_integers_only(raw)
    return doc


def _check_integers_only(node: Any) -> None:
    if isinstance(node, float):
        raise SchemaError("documents are integer-only; floats are not allowed")
    if isinstance(node, dict):
        for v in node.values():
            _check_integers_only(v)
    elif isinstance(node, list):
        for v in node:
            _check_integers_only(v)


# ---------------------------------------------------------------------------
# Structure builders
# ---------------------------------------------------------------------------


def _list(value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{name} must be a list, not {value!r}")
    return value


def objects(value: Any, name: str) -> list[dict]:
    """A list of objects; anything else is a schema error naming ``name``."""
    items = _list(value, name)
    for i, item in enumerate(items):
        as_object(item, f"{name}[{i}]")
    return items


def as_object(value: Any, name: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object, not {value!r}")
    return value


def _field(desc: dict, key: str, name: str = "") -> Any:
    """``desc[key]``; a missing key is a schema error naming ``name``, or
    else the structure."""
    if key not in desc:
        raise SchemaError(f"{name or desc['type'] + ' structure'} has no {key!r}")
    return desc[key]


def _element(universe: Universe, label: Any) -> str:
    if label not in universe.elements:
        raise SchemaError(f"label {label!r} is not an element of {universe}")
    return label


def _subset(universe: Universe, labels: list[str]) -> Subset:
    """A list of element labels; a string is not read one character at a time."""
    return universe.subset([_element(universe, x) for x in _list(labels, "a set of labels")])


def _family(universe: Universe, subsets: list[list[str]]) -> Family:
    return universe.family([_subset(universe, s) for s in _list(subsets, "a family")])


def build_backend(doc: InstanceDocument, desc: dict) -> LSRBackend:
    kind = desc["type"]
    if kind == "lsr-explicit":
        universe = doc.universe()
        gens = [_family(universe, fam) for fam in _list(desc.get("generators", []), "generators")]
        return ExplicitBackend(ExplicitLSR.from_generators(universe, gens))
    if kind == "partition":
        universe = doc.universe()
        blocks = [_subset(universe, b).mask for b in _list(_field(desc, "blocks"), "partition blocks")]
        try:
            return PartitionCoarseBackend(universe, blocks)
        except ValueError as e:  # blocks that miss or repeat an element
            raise SchemaError(f"partition: {e}") from None
    if kind == "from-asr":
        return FromASRBackend(build_asr(doc, desc))
    if kind == "metric-line":
        return MetricLineBackend(
            scale_budget=doc.scale_budget, window=doc.window
        )
    if kind == "topo-trace":
        return TopoTraceBackend(window=doc.window)
    raise SchemaError(f"not a backend structure: {kind!r}")


def build_asr(doc: InstanceDocument, desc: dict) -> ExplicitASR:
    universe = doc.universe()
    blocks = [
        [_subset(universe, labels).mask for labels in _list(block, "a from-asr block")]
        for block in _list(_field(desc, "blocks"), "from-asr blocks")
    ]
    try:
        return ExplicitASR.from_blocks(universe, blocks)
    except ValueError as e:  # blocks that miss a subset
        raise SchemaError(f"from-asr: {e}") from None


def build_nearness(doc: InstanceDocument, desc: dict) -> ExplicitNearness:
    universe = doc.universe()
    closure = desc.get("closure", "discrete")
    if closure == "discrete":
        table = discrete_closure(universe)
    elif isinstance(closure, dict):
        table = tuple(
            _subset(universe, _field(closure, str(s), "closure object")).mask
            for s in range(1 << universe.size)
        )
    else:
        raise SchemaError(f'closure must be "discrete" or an object, not {closure!r}')
    keys = [_family(universe, fam).mask_key() for fam in _list(_field(desc, "near"), "near")]
    try:
        return ExplicitNearness(universe, keys, table)
    except ValueError as e:  # a closure object that is not a closure
        raise SchemaError(f"nearness-explicit: {e}") from None


def build_proximity(doc: InstanceDocument, desc: dict) -> ExplicitProximity:
    universe = doc.universe()
    if desc.get("rule") == "discrete":
        return ExplicitProximity.discrete(universe)
    if "pairs" not in desc:
        raise SchemaError('proximity structure has no \'pairs\' and no "discrete" rule')
    pairs = {
        tuple(_subset(universe, labels).mask for labels in _pair(pair, "a proximity pair"))
        for pair in _list(desc["pairs"], "proximity pairs")
    }
    return ExplicitProximity.from_predicate(
        universe, lambda x, y: (x, y) in pairs or (y, x) in pairs
    )


def build_coarse(doc: InstanceDocument, desc: dict) -> ExplicitCoarse:
    universe = doc.universe()
    pair_lists = [
        [tuple(_element(universe, x) for x in _pair(p, "a related pair")) for p in _list(gen, "a generator")]
        for gen in _list(desc.get("generators", []), "generators")
    ]
    return ExplicitCoarse.from_pairs(universe, pair_lists)


def _pair(value: Any, name: str) -> tuple[Any, Any]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{name} must be a list of two, not {value!r}")
    return value[0], value[1]


def build_cover(doc: InstanceDocument, desc: dict) -> Cover:
    if "rule" in desc:
        build, arg = Cover.from_rule, desc["rule"]
    elif "members" in desc:
        universe = doc.universe()
        build, arg = Cover.explicit, [_subset(universe, s) for s in _list(desc["members"], "cover members")]
    elif "line_members" in desc:
        build, arg = Cover.of_line_sets, build_line_sets(desc["line_members"])
    else:
        raise SchemaError("cover needs a rule, members, or line_members")
    try:
        return build(arg)
    except ValueError as e:  # an unknown rule, or no nonempty members
        raise SchemaError(str(e)) from None


def build_map(doc: InstanceDocument, desc: dict):
    if "rule" in desc:
        return _line_map(desc)
    for key in ("domain", "codomain", "table"):
        if key not in desc:
            raise SchemaError(
                f"a map needs a rule, or a domain, codomain and table; it has no {key!r}"
            )
    domain = build_backend(doc, doc.structure(desc["domain"]))
    codomain = build_backend(doc, doc.structure(desc["codomain"]))
    if not isinstance(domain, FiniteBackend) or not isinstance(codomain, FiniteBackend):
        raise SchemaError("table maps need finite structures")
    table = as_object(desc["table"], "a map table")
    missing = [x for x in domain.universe.elements if x not in table]
    if missing:
        raise SchemaError(f"map table has no label {missing[0]!r}")
    values = {x: _element(codomain.universe, table[x]) for x in domain.universe.elements}
    return ExplicitMap.from_labels(domain, codomain, values)


def _line_map(desc: dict) -> LineMap:
    rule = desc["rule"]
    try:
        if rule == "affine":
            return LineMap.affine(_parameter(desc, "a"), _parameter(desc, "b", 0))
        if rule == "floor-div":
            return LineMap.floor_div(_parameter(desc, "d"))
    except ValueError as e:  # a missing or unreadable parameter, or one the rule refuses
        raise SchemaError(f"{rule} map: {e}") from None
    raise SchemaError(f"unknown map rule {rule!r}")


def _parameter(desc: dict, key: str, default: int | None = None) -> int:
    """``int(desc[key])``, as a map rule reads it; a missing or unreadable
    value is a ``ValueError`` naming the key."""
    if key not in desc:
        if default is None:
            raise ValueError(f"no {key!r}")
        return default
    try:
        return int(desc[key])
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must be an integer, not {desc[key]!r}") from None


# The largest integer that a line-set field may hold: below the top of
# the int64 windows that the line layer scans to (``1 << 62`` in
# ``MetricLineBackend.bounded`` and ``lineset._directed_distances``).
LINE_INTEGER_TOP = (1 << 62) - 1

# line-set kind -> (its fields that are lists of integers, its integer fields)
_LINE_SET_INTEGERS = {
    "finite": (("elements",), ()),
    "periodic": (("finite", "removals"), ()),
    "geometric": ((), ("m", "b", "k0")),
    "blocks": (("ints",), ()),
}


def _line_integer(value: Any, name: str) -> None:
    if _integer(value, name) > LINE_INTEGER_TOP:
        raise SchemaError(f"{name} must be at most {LINE_INTEGER_TOP}, not {value}")


def _check_line_set(desc: dict, path: str = "") -> None:
    """A schema error naming the path of the first field of the line-set
    node ``desc``, or of a set nested in it, that has the wrong type or
    an integer above ``LINE_INTEGER_TOP``.  Missing fields and other
    values out of range are left to the line-set layer."""
    kind = desc.get("kind")
    lists, scalars = _LINE_SET_INTEGERS.get(kind, ((), ()))
    for key in (k for k in lists if k in desc):
        for j, n in enumerate(_list(desc[key], f"{path}{key}")):
            _line_integer(n, f"{path}{key}[{j}]")
    for key in (k for k in scalars if k in desc):
        _line_integer(desc[key], f"{path}{key}")
    if kind == "periodic":
        for j, ap in enumerate(_list(desc.get("progressions", []), f"{path}progressions")):
            if not isinstance(ap, list) or len(ap) != 2 or not all(_is_integer(n) for n in ap):
                raise SchemaError(f"{path}progressions[{j}] must be a pair of integers, not {ap!r}")
            for k, n in enumerate(ap):
                _line_integer(n, f"{path}progressions[{j}][{k}]")
    if kind == "blocks":
        if not isinstance(desc.get("rule", ""), str):
            raise SchemaError(f"{path}rule must be a string, not {desc['rule']!r}")
        if not _list(desc.get("gaps", ["divergent"]), f"{path}gaps"):
            raise SchemaError(f"{path}gaps must not be empty")
        for j, sub in enumerate(_list(desc.get("sets", []), f"{path}sets")):
            _check_line_set(as_object(sub, f"{path}sets[{j}]"), f"{path}sets[{j}].")


def build_line_sets(descs: list[dict]) -> list[ls.LineSet]:
    """Line sets of a query; a set that is not an object, that has a
    field of the wrong type (``_check_line_set``), or that the line-set
    layer refuses (including a ``LineSetError``) is a schema error naming
    its index."""
    sets = []
    for i, desc in enumerate(_list(descs, "line sets")):
        if not isinstance(desc, dict):
            raise SchemaError(f"set {i}: not an object")
        try:
            _check_line_set(desc)
            sets.append(ls.lineset_from_json(desc))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"set {i}: {e}") from e
    return sets
