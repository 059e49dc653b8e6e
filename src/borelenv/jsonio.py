"""JSON encoding of the public value types.

Wire formats:

* field: ``"Q"`` or ``{"Fp": p}``
* scalar over Q: string ``"num/den"`` (``"num"`` when the denominator is
  1) so no JSON reader can lose precision; over F_p: plain int in [0, p)
* matrix: ``{"field": ..., "rows": [[...], ...]}``
* permutation: 1-based image array, e.g. ``[2, 1, 3]``
* flag: the adapted basis matrix
* certificate: ``{"g": matrix, "field": ..., "entries": [{"vector": [...],
  "w": [...]}, ...], "spans": bool}``

Decoding raises InvalidInput on anything malformed; encoding raises
ResourceGuard on a rational past Python's int-to-str digit limit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .decomp import BruhatFactors, UlpFactors
from .envelope import BorelConjugate, EnvelopeCertificate
from .errors import InvalidInput, ResourceGuard
from .linalg import FieldSpec, Matrix
from .weyl import Permutation

__all__ = [
    "field_to_json",
    "field_from_json",
    "scalar_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "perm_to_json",
    "perm_from_json",
    "certificate_to_json",
    "bruhat_to_json",
    "ulp_to_json",
    "dumps_canonical",
    "load_json_file",
]


def field_to_json(field: FieldSpec) -> Any:
    return "Q" if field.p is None else {"Fp": field.p}


def field_from_json(obj: Any) -> FieldSpec:
    if obj == "Q":
        return FieldSpec.rational()
    if isinstance(obj, dict) and set(obj) == {"Fp"} and isinstance(obj["Fp"], int):
        return FieldSpec.prime(obj["Fp"])
    raise InvalidInput(f"bad field descriptor {obj!r}")


def scalar_to_json(field: FieldSpec, x) -> Any:
    if field.p is None:
        try:
            return str(Fraction(x))
        except ValueError as exc:  # beyond Python's int-to-str digit limit
            raise ResourceGuard("output entry has too many digits to print") from exc
    return int(x)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": field_to_json(m.field),
        "rows": [[scalar_to_json(m.field, x) for x in m.row(i)] for i in range(m.nrows)],
    }


def matrix_from_json(obj: Any, field: FieldSpec | None = None) -> Matrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InvalidInput("matrix JSON must be an object with a 'rows' key")
    if "field" in obj:
        declared = field_from_json(obj["field"])
        if field is not None and field != declared:
            raise InvalidInput(f"field mismatch: file says {declared}, caller says {field}")
        field = declared
    if field is None:
        raise InvalidInput("matrix JSON lacks a field and none was supplied")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidInput("matrix rows must be a list of lists")
    return Matrix.from_rows(field, rows)  # coerces each entry once


def perm_to_json(w: Permutation) -> list[int]:
    return list(w.images)


def perm_from_json(obj: Any) -> Permutation:
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise InvalidInput(f"bad permutation {obj!r}")
    return Permutation(tuple(obj))


def certificate_to_json(cert: EnvelopeCertificate) -> dict:
    target: BorelConjugate = cert.target
    fld = target.g.field
    return {
        "g": matrix_to_json(target.g),
        "field": field_to_json(fld),
        "entries": [
            {"vector": [scalar_to_json(fld, x) for x in vec], "w": perm_to_json(w)}
            for vec, w in cert.entries
        ],
        "spans": cert.spans,
    }


def bruhat_to_json(factors: BruhatFactors) -> dict:
    return {
        "kind": "bruhat",
        "u1": matrix_to_json(factors.u1),
        "s": perm_to_json(factors.s),
        "u2": matrix_to_json(factors.u2),
    }


def ulp_to_json(factors: UlpFactors) -> dict:
    return {
        "kind": "ulp",
        "u": matrix_to_json(factors.u),
        "l": matrix_to_json(factors.l),
        "p": perm_to_json(factors.p),
        "normalization": factors.normalization,
    }


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too many digits, too deep
        raise InvalidInput(f"malformed JSON in {path}: {exc}") from exc
