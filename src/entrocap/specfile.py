"""Channel-spec files: parsing, validation, and encoding helpers.

A spec file is a UTF-8 JSON document::

    {
      "schema_version": 1,
      "kind": "kraus" | "cq" | "gaussian" | "named",
      "payload": { ... },
      "constraint": {"F": <matrix> | "number_operator", "E": <number>},
      "input_state": <matrix>,          # optional
      "options": { ... }                # optional defaults for flags
    }

Complex matrices are nested arrays whose innermost entries are ``[re, im]``
pairs; Gaussian parameters (K, l, alpha) are plain real arrays plus explicit
mode counts.  Structural problems raise :class:`SpecFileError` (exit code 2
at the CLI); a well-formed file whose objects violate their invariants
raises :class:`ValidationError` (exit code 3).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .capacity import EnergyConstraint
from .channels import (
    KrausChannel,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    replacement_channel,
)
from .entropy import Ensemble
from .errors import ValidationError
from .gaussian import (
    GaussianChannelParams,
    SymplecticSpace,
    fock_attenuator,
    number_operator,
)
from .linalg import assert_density_operator

__all__ = [
    "SCHEMA_VERSION",
    "ChannelSpec",
    "SpecFileError",
    "decode_complex_matrix",
    "encode_complex_matrix",
    "load_spec",
    "parse_spec",
]

SCHEMA_VERSION = 1

KINDS = ("kraus", "cq", "gaussian", "named")


class SpecFileError(ValueError):
    """Malformed spec file; carries a location string for the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def decode_complex_matrix(obj, where: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"not a numeric array: {exc}", where) from None
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise SpecFileError(
            f"complex matrix must be rows of [re, im] pairs, got shape {arr.shape}", where
        )
    return arr[..., 0] + 1j * arr[..., 1]


def encode_complex_matrix(mat) -> list:
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _number(obj, where: str, integer: bool = False):
    """A JSON number as a float, or as an int when ``integer``; else a SpecFileError."""
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise SpecFileError(f"expected a number, got {obj!r}", where)
    if integer and not (isinstance(obj, numbers.Integral) or float(obj).is_integer()):
        raise SpecFileError(f"expected an integer, got {obj!r}", where)
    try:
        return int(obj) if integer else float(obj)
    except OverflowError:  # an integer literal beyond the float range
        raise SpecFileError(f"number out of range: {obj!r}", where) from None


def _decode_real(obj, where: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"not a numeric array: {exc}", where) from None
    if arr.ndim != ndim:
        raise SpecFileError(f"expected a {ndim}-d real array, got shape {arr.shape}", where)
    return arr


@dataclass
class ChannelSpec:
    """Parsed spec file: the built objects plus the raw document echo."""

    kind: str
    channel: KrausChannel | None
    gaussian: GaussianChannelParams | None
    constraint: EnergyConstraint | None
    input_state: np.ndarray | None
    ensemble: Ensemble | None = None
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _build_named(payload: dict) -> KrausChannel:
    name = payload.get("name")
    if not isinstance(name, str):
        raise SpecFileError("named payload needs a string 'name'", "payload.name")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise SpecFileError("'params' must be an object", "payload.params")

    def param(key, default, integer=False):
        return _number(params.get(key, default), f"payload.params.{key}", integer)

    if name == "identity":
        return identity_channel(param("dim", 2, integer=True))
    if name == "dephasing":
        return dephasing_channel(param("dim", 2, integer=True))
    if name == "depolarizing":
        return depolarizing_channel(param("p", 0.5), param("dim", 2, integer=True))
    if name == "replacement":
        if "target" not in params:
            raise SpecFileError("replacement needs a 'target' state", "payload.params.target")
        target = decode_complex_matrix(params["target"], "payload.params.target")
        return replacement_channel(target, param("dim", target.shape[0], integer=True))
    if name == "attenuator":
        if "eta" not in params or "cutoff" not in params:
            raise SpecFileError("attenuator needs 'eta' and 'cutoff'", "payload.params")
        return fock_attenuator(param("eta", None), param("cutoff", None, integer=True))
    raise SpecFileError(f"unknown builtin channel {name!r}", "payload.name")


def parse_spec(doc: dict) -> ChannelSpec:
    """Validate and materialize a decoded spec document."""
    if not isinstance(doc, dict):
        raise SpecFileError("top level must be an object", "$")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SpecFileError(f"unsupported schema_version {version!r}", "schema_version")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecFileError(f"kind must be one of {KINDS}, got {kind!r}", "kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SpecFileError("'payload' must be an object", "payload")

    channel = None
    gaussian = None
    if kind == "kraus":
        raw_ops = payload.get("kraus")
        if not isinstance(raw_ops, list) or not raw_ops:
            raise SpecFileError("'kraus' must be a nonempty list of matrices", "payload.kraus")
        ops = [decode_complex_matrix(m, f"payload.kraus[{i}]") for i, m in enumerate(raw_ops)]
        channel = KrausChannel(tuple(ops))
    elif kind == "cq":
        raw_states = payload.get("states")
        if not isinstance(raw_states, list) or not raw_states:
            raise SpecFileError("'states' must be a nonempty list of matrices", "payload.states")
        sigmas = [decode_complex_matrix(m, f"payload.states[{i}]") for i, m in enumerate(raw_states)]
        channel = cq_channel(sigmas)
    elif kind == "named":
        channel = _build_named(payload)
    else:  # gaussian
        for key in ("K", "l", "alpha", "modes_in", "modes_out"):
            if key not in payload:
                raise SpecFileError(f"gaussian payload needs '{key}'", f"payload.{key}")
        space_in = SymplecticSpace.standard(_number(payload["modes_in"], "payload.modes_in", True))
        space_out = SymplecticSpace.standard(_number(payload["modes_out"], "payload.modes_out", True))
        gaussian = GaussianChannelParams(
            _decode_real(payload["K"], "payload.K", 2),
            _decode_real(payload["l"], "payload.l", 1),
            _decode_real(payload["alpha"], "payload.alpha", 2),
            space_in,
            space_out,
        )

    constraint = None
    raw_con = doc.get("constraint")
    if raw_con is not None:
        if not isinstance(raw_con, dict) or "E" not in raw_con or "F" not in raw_con:
            raise SpecFileError("constraint needs 'F' and 'E'", "constraint")
        f_field = raw_con["F"]
        if f_field == "number_operator":
            if channel is None:
                raise SpecFileError(
                    "number_operator constraint needs a finite-dimensional channel", "constraint.F"
                )
            f_mat = number_operator(channel.dim_in - 1)
        elif isinstance(f_field, str):
            raise SpecFileError(f"unknown constraint operator {f_field!r}", "constraint.F")
        else:
            f_mat = decode_complex_matrix(f_field, "constraint.F")
        constraint = EnergyConstraint(f_mat, _number(raw_con["E"], "constraint.E"))
        if channel is not None and constraint.dim != channel.dim_in:
            raise ValidationError("constraint dimension does not match channel input")

    input_state = None
    if doc.get("input_state") is not None:
        input_state = assert_density_operator(
            decode_complex_matrix(doc["input_state"], "input_state"), name="input state"
        )
        if channel is not None and input_state.shape[0] != channel.dim_in:
            raise ValidationError("input state dimension does not match channel input")

    ensemble = None
    raw_mu = doc.get("ensemble")
    if raw_mu is not None:
        if not isinstance(raw_mu, dict) or "weights" not in raw_mu or "states" not in raw_mu:
            raise SpecFileError("ensemble needs 'weights' and 'states'", "ensemble")
        states = [
            decode_complex_matrix(m, f"ensemble.states[{i}]") for i, m in enumerate(raw_mu["states"])
        ]
        ensemble = Ensemble(np.asarray(raw_mu["weights"], dtype=float), tuple(states))
        if channel is not None and ensemble.dim != channel.dim_in:
            raise ValidationError("ensemble dimension does not match channel input")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SpecFileError("'options' must be an object", "options")

    return ChannelSpec(
        kind=kind,
        channel=channel,
        gaussian=gaussian,
        constraint=constraint,
        input_state=input_state,
        ensemble=ensemble,
        options=options,
        raw=doc,
    )


def load_spec(path: str) -> ChannelSpec:
    """Read and parse a spec file; parse problems carry a location."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from None
    return parse_spec(doc)
