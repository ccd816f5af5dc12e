"""JSON configuration: pairing matrix, scheme values, Fock split.

All scalars are strings in ``p/q`` or ``p/q+r/s i`` form so nothing is ever
rounded; scheme keys are comma-joined sorted index lists like ``"1,1,2"``.
The pairing fixes the dimension and the symmetry; the keys ``"dimension"``
and ``"symmetric"`` may restate them and must then agree with it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .algebra import _canonical
from .fock import FockStructure
from .laplace import PairingMatrix
from .renorm import Scheme
from .scalars import Scalar


class ConfigError(ValueError):
    """Invalid configuration file."""


_ZETA_KEY_RE = re.compile(r"^\d+(,\d+)*$")

# The least value of each integer setting, whether it comes from a config
# file or from a command-line override.
_MINIMUMS = {"dimension": 1, "seed": 0, "max_grade": 1, "trials": 1}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value) -> int:
    """``value`` if it is an integer (not a bool) >= the minimum for ``name``."""
    if not _is_int(value):
        raise ConfigError(f"'{name}' must be an integer")
    if value < _MINIMUMS[name]:
        raise ConfigError(f"'{name}' must be >= {_MINIMUMS[name]}")
    return value


@dataclass
class Config:
    pairing: PairingMatrix
    scheme: Scheme
    fock: FockStructure | None
    seed: int
    max_grade: int
    trials: int

    @property
    def dimension(self) -> int:
        return self.pairing.dim


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def parse_config(data: dict) -> Config:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")

    rows = data.get("pairing")
    if not isinstance(rows, list) or not rows:
        raise ConfigError("'pairing' must be a non-empty square matrix of scalar strings")
    dimension = len(rows)
    parsed_rows = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigError(f"pairing row {r + 1} is not a list of scalar strings")
        if len(row) != dimension:
            raise ConfigError(f"pairing row {r + 1} does not have {dimension} entries")
        try:
            parsed_rows.append([Scalar.parse(x) for x in row])
        except ValueError as exc:
            raise ConfigError(f"pairing row {r + 1}: {exc}") from exc
    pairing = PairingMatrix(parsed_rows)
    # The matrix states its size and symmetry; a config may restate them.
    if "dimension" in data and check_int("dimension", data["dimension"]) != dimension:
        raise ConfigError(f"'dimension' disagrees with the {dimension}x{dimension} pairing")
    symmetric = data.get("symmetric", pairing.symmetric)
    if not isinstance(symmetric, bool):
        raise ConfigError("'symmetric' must be true or false")
    if symmetric != pairing.symmetric:
        state = "symmetric" if pairing.symmetric else "not symmetric"
        raise ConfigError(f"'symmetric' disagrees with the pairing, which is {state}")

    zeta = data.get("zeta", {})
    if not isinstance(zeta, dict):
        raise ConfigError("'zeta' must be an object mapping monomial keys to scalars")
    values = {}
    for key, text in zeta.items():
        if not _ZETA_KEY_RE.match(key):
            raise ConfigError(f"zeta key {key!r} is not a comma-joined index list")
        indices = [int(p) for p in key.split(",")]
        if indices != sorted(indices):
            raise ConfigError(f"zeta key {key!r} must list indices in ascending order")
        if len(indices) < 2:
            raise ConfigError(f"zeta key {key!r} has grading < 2 (those values are structural)")
        if not (1 <= indices[0] and indices[-1] <= dimension):
            raise ConfigError(f"zeta key {key!r} has an index outside 1..{dimension}")
        # indices is sorted and in range, so its runs are the canonical counts.
        counts: dict[int, int] = {}
        for i in indices:
            counts[i] = counts.get(i, 0) + 1
        try:
            values[_canonical(tuple(counts.items()))] = Scalar.parse(text)
        except ValueError as exc:
            raise ConfigError(f"zeta value for {key!r}: {exc}") from exc
    scheme = Scheme(values)

    fock = None
    fock_data = data.get("fock")
    if fock_data is not None:
        if not isinstance(fock_data, dict):
            raise ConfigError("'fock' must be an object")
        creation = fock_data.get("creation", [])
        annihilation = fock_data.get("annihilation", [])
        involution = fock_data.get("involution", {})
        if not all(isinstance(x, list) and all(map(_is_int, x)) for x in (creation, annihilation)):
            raise ConfigError("fock 'creation' and 'annihilation' must be lists of integers")
        if not isinstance(involution, dict) or not all(
            k.isdecimal() and _is_int(v) for k, v in involution.items()
        ):
            raise ConfigError("fock 'involution' must map index strings like \"1\" to integers")
        try:
            fock = FockStructure(creation, annihilation, {int(k): v for k, v in involution.items()})
        except ValueError as exc:
            raise ConfigError(f"fock block: {exc}") from exc
        if not fock.covers(dimension):
            raise ConfigError("fock creation+annihilation sets must cover 1..dimension")

    return Config(
        pairing=pairing,
        scheme=scheme,
        fock=fock,
        seed=check_int("seed", data.get("seed", 0)),
        max_grade=check_int("max_grade", data.get("max_grade", 4)),
        trials=check_int("trials", data.get("trials", 100)),
    )
