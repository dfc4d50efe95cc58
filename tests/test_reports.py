"""Report serialisation: the JSON every certificate, descriptor and job
report writes, pinned by digest."""

import hashlib
import json

import numpy as np
import pytest

from _helpers import exact_measure, kappa
from infostab import (
    EntropySolution,
    FunctionSum,
    GridSample,
    ModifiedEntropySolution,
    PowerFamily,
    PowerLaw,
    PowerLog,
    ProductUV,
    ScaledBump,
    Wave3,
    XLogX,
    certify_associativity,
    certify_entropy_equation,
    certify_fundamental_closed,
    certify_fundamental_open,
    certify_hyperstable,
    certify_measure_sequence,
    certify_modified_entropy,
    certify_sum_form,
    certify_sum_form_mixed,
    certify_sum_form_multiplicative,
    config_of,
)
from infostab.cli import run


def digest(value):
    text = json.dumps(value, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def noisy(family):
    return FunctionSum((family, ScaledBump(0.5, 0.2, 1e-3)))


UVW = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

# one certificate per theorem, each built small
CERTIFICATES = {
    "fundamental_open": lambda: certify_fundamental_open(
        noisy(PowerFamily(2.0, 1.0, 0.5)), 0.5, 64
    ),
    "fundamental_closed": lambda: certify_fundamental_closed(
        noisy(PowerFamily(2.0, 1.0, 0.5)), 0.5, 64
    ),
    "hyperstability": lambda: certify_hyperstable(
        noisy(PowerFamily(1.0, 1.0, -1.0)), -1.0, 64
    ),
    "entropy_equation": lambda: certify_entropy_equation(
        EntropySolution(0.7, 2.0), 2.0, 10
    ),
    "modified_entropy": lambda: certify_modified_entropy(
        ModifiedEntropySolution(0.4, 2.0, XLogX(1.0)), 2.0, 1.0, 10
    ),
    "sum_form": lambda: certify_sum_form(
        FunctionSum((PowerLaw(0.3, 1.0), ScaledBump(0.5, 0.2, 1e-4))), 3, 32
    ),
    "sum_form_multiplicative": lambda: certify_sum_form_multiplicative(
        PowerLaw(1.0, 1.7), 3, 3, 10
    ),
    "sum_form_mixed": lambda: certify_sum_form_mixed(PowerLog(0.7, 2.0), 2.0, 2.0, 3, 3, 10),
    "measure_sequence": lambda: certify_measure_sequence(exact_measure(0.5), 4, 16),
    "measure_sequence_statement": lambda: certify_measure_sequence(
        (PowerFamily(kappa(2.0), kappa(2.0), 2.0), [1e-3] * 4), 5, 24, alpha=2.0
    ),
    "associativity": lambda: certify_associativity(ProductUV(1.0), ProductUV(1.0), *UVW, 8),
}

CERTIFICATE_DIGESTS = {
    "fundamental_open": "64a04ad2ae72b707b00a234fdc3425d8eaac0b3ed518116f99d032b38088bbdf",
    "fundamental_closed": "29519e3fe0b340768484cb666b8c7f7136e89c1444f02d209e79b425471202cc",
    "hyperstability": "b6ad5c642f1ecfe4f46ff22916ee8125c236ca1ef8bc048e5fdcf3bae222f17e",
    "entropy_equation": "2e2292b8efda4832dc588e3c9029f04d584cce72eb9e609505e804f9346728aa",
    "modified_entropy": "77080c8e8a6edabf496190637d53c0db7e5180c363f416b20ef3739e79a5d382",
    "sum_form": "304d2dbd67d7b11ae7cc702d019488a846ad84589a13ce154a9eaf9f6aa01c5e",
    "sum_form_multiplicative": "aa2ea2206c23dd526a7fb52b8237f8b2c698aa0aeb0c5c2b659d4ddae3742ff6",
    "sum_form_mixed": "8f1563e8322c521c2a34ddfcd004fb1b649fb2366fe7d19158154f8eb5af3721",
    "measure_sequence": "243a9c122a0f2f934e86dc97794a15bbfd6d479b522df317196d5ebb02e96c74",
    "measure_sequence_statement": "6a269697cf3e7110b91dc60a86ec9fd1969e640512eefa2e83322d62ab5f0cc4",
    "associativity": "b3b00696cfebcf7201e1046f071294ccc6b8cb7d3070b0804607c3fe51d50428",
}


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_certificate_json_is_frozen(name):
    assert digest(CERTIFICATES[name]().to_json_dict()) == CERTIFICATE_DIGESTS[name]


# json.dumps without sort_keys: these also pin the order of the trace entries
UNSORTED_DIGESTS = {
    "fundamental_open": "91a5ee3993ed8708dd2552123bf1dce2f25015d9d684cc6fa7fb6bb81629e4bb",
    "fundamental_closed": "0d54e9eacca00bfd29f7c82f94969fc6346c7ffd33dfbf47ceee3254c8d67c54",
    "hyperstability": "27d274e4446593e5aa41aca35430b8bda2d34f37ff7ea9f82725b8c4609e88ce",
    "entropy_equation": "3164d39956a3aded0c3fce9939acd7978f066cf1512a28a6459703e6d7654928",
    "modified_entropy": "821f126577d06e2ecce23caa08be7b47199f267f2c6e4da5aaf07b6e29364ce1",
    "sum_form": "a0a9ccc2e2583d54875d2d4abb3633ce052b21ce85e8835e1cb8352336df7dca",
    "sum_form_multiplicative": "f89371dbacaa3e374bab24c558de5f3ba6ae31009125a3acd4a725f3ddf4e0be",
    "sum_form_mixed": "1d89f8b3524cbec542184760fa6bf31218c2d81d2bbe5d04103386cc11a0f1fb",
    "measure_sequence": "9b03775b0e4c423043440f6ac098f6cb7842247814b4100d832acbea6d73e022",
    "measure_sequence_statement": "fd883bee8caee9a42d11c2914d9dfbba08de369e0f1408f138a031067a7ed616",
    "associativity": "741d04ebdaa83a59ed3e30320a601510f0fee3c66f8393cec54078ec256a7db9",
}


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_certificate_json_order_is_frozen(name):
    text = json.dumps(CERTIFICATES[name]().to_json_dict(), allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == UNSORTED_DIGESTS[name]


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_trace_is_a_dict(name):
    assert type(CERTIFICATES[name]().trace) is dict


def test_certificate_keys_keep_their_order():
    # the digests sort their keys; this pins the order the fields write them in
    keys = list(CERTIFICATES["fundamental_open"]().to_json_dict())
    assert keys == [
        "theorem", "alpha", "resolution", "epsilon", "epsilon_source", "constants",
        "candidate", "distance", "bound", "satisfied", "trace",
    ]


def test_residual_report_is_frozen(tmp_path):
    config = {"schema": 1, "job": "residual", "equation": "fundamental", "alpha": 0.5,
              "function": {"kind": "sum", "terms": [
                  {"kind": "power_family", "a": 2.0, "b": 1.0, "alpha": 0.5},
                  {"kind": "bump", "center": 0.5, "width": 0.2, "height": 1e-3}]},
              "grid": {"kind": "triangle", "resolution": 64}, "epsilon_target": 1e-2}
    assert run(config, out_dir=str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert digest(report) == "c1912b499749853e38bba8c3af699e8879892d3b50b8b4966ba286be1fe1a05e"


def test_alpha_coerces_to_float():
    cert = certify_fundamental_open(PowerFamily(2.0, 1.0, 2.0), 2, 32)
    d = cert.to_json_dict()
    assert type(d["alpha"]) is float and type(d["candidate"]["alpha"]) is float
    assert '"alpha": 2.0' in json.dumps(d["candidate"])


def _leaves(value):
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("fn", [
    PowerFamily(np.float64(2.0), np.float64(1.0), np.float64(0.5)),
    Wave3(np.float64(1e-3), seed=np.int64(6)),
    GridSample(tuple(np.linspace(0.0, 1.0, 3)), tuple(np.arange(3.0))),
    FunctionSum((PowerLaw(np.float64(0.3), np.float64(1.0)), ScaledBump(0.5, 0.2, 1e-4))),
], ids=["power_family", "wave3", "grid_sample", "sum"])
def test_descriptors_are_json_native(fn):
    cfg = config_of(fn)
    assert {type(leaf) for leaf in _leaves(cfg)} <= {str, int, float, bool}
    assert json.loads(json.dumps(cfg)) == cfg
