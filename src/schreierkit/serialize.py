"""JSON round-tripping for the file formats the CLI speaks.

Rationals travel as "p/q" strings (plain integers allowed on input);
families as {"sets": [[1,2],[3]], "hereditary": true|false|null};
partition measures as {"pieces": [...], "weights": [["1/2", ...], ...]};
vectors as {"coords": [[3, "1/2"], [5, "-2/3"]]}; family parameters as
{"lambda": "1/2", "window_max": 7, "seed": 12345} with an optional
"radices" override table.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional

from .families import Family, PartitionMeasure
from .vectors import SparseVector

if TYPE_CHECKING:
    from .tfamily import TParams


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, bool):
        raise ValueError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {text!r}") from exc
    raise ValueError(f"not a rational: {text!r}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_array(value: Any, what: str) -> list:
    if not isinstance(value, list) or not all(_is_int(k) for k in value):
        raise ValueError(f"{what} {value!r} is not an array of integers")
    return value


def _set_array(value: Any, what: str = "set") -> list:
    if _int_array(value, what) != sorted(set(value)):
        raise ValueError(f"{what} {value} is not strictly increasing")
    return value


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    # Decimal prints every digit of a large int; str() refuses past 4300
    numerator = Decimal(value.numerator)
    if value.denominator == 1:
        return str(numerator)
    return f"{numerator}/{Decimal(value.denominator)}"


def family_to_obj(family: Family) -> dict:
    return {
        "sets": [list(s) for s in family],
        "hereditary": family.hereditary_flag,
    }


def family_from_obj(obj: dict) -> Family:
    if not isinstance(obj, dict) or "sets" not in obj:
        raise ValueError('family JSON must be an object with a "sets" array')
    hereditary = obj.get("hereditary")
    # 0 == False and 1 == True, so test the type rather than membership
    if hereditary is not None and not isinstance(hereditary, bool):
        raise ValueError('"hereditary" must be true, false or null')
    sets = obj["sets"]
    if not isinstance(sets, list):
        raise ValueError('"sets" must be an array')
    return Family(map(_set_array, sets), hereditary=hereditary)


def measure_to_obj(measure: PartitionMeasure) -> dict:
    return {
        "pieces": [list(p) for p in measure.pieces],
        "weights": [
            [format_rational(w[e]) for e in p]
            for p, w in zip(measure.pieces, measure.weights)
        ],
    }


def measure_from_obj(obj: dict) -> PartitionMeasure:
    if not isinstance(obj, dict) or "pieces" not in obj:
        raise ValueError('measure JSON must be an object with a "pieces" array')
    if not isinstance(obj["pieces"], list):
        raise ValueError('"pieces" must be an array')
    pieces = [tuple(_set_array(p, "piece")) for p in obj["pieces"]]
    weights_raw = obj.get("weights")
    if weights_raw is None:
        return PartitionMeasure.uniform(pieces)
    if not isinstance(weights_raw, list) or len(weights_raw) != len(pieces):
        raise ValueError(f'"weights" must be an array of {len(pieces)} arrays, one per piece')
    weights = []
    for p, row in zip(pieces, weights_raw):
        if not isinstance(row, list) or len(row) != len(p):
            raise ValueError(f"piece {list(p)} needs an array of {len(p)} weights")
        weights.append({e: parse_rational(v) for e, v in zip(p, row)})
    return PartitionMeasure(pieces, weights)


def vector_to_obj(x: SparseVector) -> dict:
    return {"coords": [[k, format_rational(v)] for k, v in x.items()]}


def vector_from_obj(obj: dict) -> SparseVector:
    if not isinstance(obj, dict) or "coords" not in obj:
        raise ValueError('vector JSON must be an object with a "coords" array')
    coords = obj["coords"]
    if not isinstance(coords, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in coords
    ):
        raise ValueError('"coords" must be an array of [index, value] pairs')
    return SparseVector([(k, parse_rational(v)) for k, v in coords])


def tparams_from_obj(obj: dict) -> tuple[TParams, Optional[int]]:
    """Build family parameters from a config object; returns (params, seed)."""
    from .tfamily import TParams

    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    lam = parse_rational(obj.get("lambda", "1/2"))
    window_max = obj.get("window_max", 7)
    if not _is_int(window_max) or window_max < 1:
        raise ValueError(f'bad "window_max": {window_max!r}')
    radices = obj.get("radices")
    if radices is not None:
        if not isinstance(radices, dict):
            raise ValueError('"radices" must be an object mapping m to its radix')
        for m, r in radices.items():
            # one spelling per m, so two keys can never name the same piece
            if not (isinstance(m, str) and re.fullmatch(r"[1-9][0-9]*", m)):
                raise ValueError(f'"radices": key {m!r} is not an integer >= 1 in plain decimal')
            if not _is_int(r) or r < 1:
                raise ValueError(f'"radices": r_{m} = {r!r} is not an integer >= 1')
        radices = {int(m): r for m, r in radices.items()}
    seed = obj.get("seed")
    if seed is not None and not _is_int(seed):
        raise ValueError(f'bad "seed": {seed!r}')
    return TParams.build(lam, window_max, radices), seed


def tparams_to_obj(params: TParams, seed: Optional[int] = None) -> dict:
    obj: dict = {
        "lambda": format_rational(params.lam),
        "window_max": params.window_max,
        "radices": {str(m): r for m, r in sorted(params.radices.items())},
    }
    if seed is not None:
        obj["seed"] = seed
    return obj


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def dump_json(obj: Any, path: Optional[str]) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
