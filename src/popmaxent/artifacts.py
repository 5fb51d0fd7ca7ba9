"""Structured-text (JSON) serialization of constraint problems, models,
weight vectors, and evaluation results.

Every document carries a provenance block (tool version, input digests,
resolved configuration) and the real-valued payload fields are written as
17-significant-digit decimal strings, so artifacts reload bit-identically
and identical invocations produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

import numpy as np

from . import __version__
from .core import AttributeSchema, Pattern
from .errors import ValidationError
from .evaluation import EvalResult
from .extraction import AtomicConstraint, ConstraintSet, RetainedScope
from .model import FitReport, MaxEntModel
from .raking import WeightVector

FORMATS = {
    "constraints": "popmaxent/constraints-v1",
    "model": "popmaxent/model-v1",
    "weights": "popmaxent/weights-v1",
    "eval": "popmaxent/eval-v1",
}


def _real(x: float) -> str:
    return format(float(x), ".16e")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, ensure_ascii=True) + "\n"


def digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(doc: dict) -> str:
    """Digest of a document's sorted-key JSON, its provenance left out."""
    return digest_text(json.dumps({k: v for k, v in doc.items() if k != "provenance"},
                                  sort_keys=True))


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def provenance(inputs: Mapping[str, str] | None = None, config: dict | None = None) -> dict:
    return {
        "tool": f"popmaxent {__version__}",
        "inputs": dict(inputs or {}),
        "config": dict(config or {}),
    }


# -- schema -----------------------------------------------------------------


def schema_to_dict(schema: AttributeSchema) -> dict:
    return {
        "attributes": [
            {"name": name, "domain": list(domain)} for name, domain in schema.attributes
        ]
    }


def schema_from_dict(doc: dict) -> AttributeSchema:
    return AttributeSchema.from_domains(
        (a["name"], a["domain"]) for a in doc["attributes"]
    )


def schema_digest(schema: AttributeSchema) -> str:
    return _digest(schema_to_dict(schema))


# -- constraint problems ------------------------------------------------------


def constraints_to_dict(cs: ConstraintSet, prov: dict | None = None) -> dict:
    schema = cs.schema
    return {
        "format": FORMATS["constraints"],
        "provenance": prov or provenance(),
        "schema": schema_to_dict(schema),
        "scopes": [
            {
                "attrs": [schema.names[a] for a in s.attrs],
                "score": _real(s.score),
                "method": s.method,
            }
            for s in cs.scopes
        ],
        "constraints": [
            {
                "attrs": [schema.names[a] for a, _ in c.pattern.fixed],
                "values": [schema.domain(a)[v] for a, v in c.pattern.fixed],
                "target": _real(c.target),
                "scope": c.scope_id,
            }
            for c in cs.constraints
        ],
    }


def constraints_from_dict(doc: dict) -> ConstraintSet:
    if doc.get("format") != FORMATS["constraints"]:
        raise ValidationError(f"not a constraint-problem document: {doc.get('format')!r}")
    schema = schema_from_dict(doc["schema"])
    scopes = tuple(
        RetainedScope(
            attrs=tuple(schema.attr_index(n) for n in s["attrs"]),
            score=float(s["score"]),
            method=s["method"],
        )
        for s in doc["scopes"]
    )
    constraints = []
    for c in doc["constraints"]:
        attrs = [schema.attr_index(n) for n in c["attrs"]]
        values = [schema.category_index(a, v) for a, v in zip(attrs, c["values"])]
        constraints.append(
            AtomicConstraint(
                pattern=Pattern.of(dict(zip(attrs, values))),
                target=float(c["target"]),
                scope_id=c["scope"],
            )
        )
    return ConstraintSet(schema, tuple(constraints), scopes)


def constraints_digest(cs: ConstraintSet) -> str:
    return _digest(constraints_to_dict(cs))


# -- models -------------------------------------------------------------------


def report_to_dict(report: FitReport) -> dict:
    # wall time stays out of artifacts so identical invocations give identical bytes
    return {
        "iterations": report.iterations,
        "dual_value": _real(report.dual_value),
        "residual": _real(report.residual),
        "converged": report.converged,
        "seconds": None,
        "message": report.message,
        "evaluations": report.evaluations,
        "cliques": report.cliques,
        "largest_clique": report.largest_clique,
    }


def report_from_dict(doc: dict) -> FitReport:
    return FitReport(
        iterations=doc["iterations"],
        dual_value=float(doc["dual_value"]),
        residual=float(doc["residual"]),
        converged=doc["converged"],
        seconds=doc["seconds"] if doc.get("seconds") is not None else 0.0,
        message=doc.get("message", ""),
        evaluations=doc.get("evaluations", 0),
        cliques=doc.get("cliques", 0),
        largest_clique=doc.get("largest_clique", 0),
    )


def model_to_dict(model: MaxEntModel, report: FitReport | None = None,
                  prov: dict | None = None) -> dict:
    constraints = constraints_to_dict(model.constraints)
    return {
        "format": FORMATS["model"],
        "provenance": prov or provenance(),
        "schema_digest": _digest(constraints["schema"]),
        "constraints_digest": _digest(constraints),
        "constraints": constraints,
        "lambda": [_real(v) for v in model.lam],
        "enum_cap": model.enum_cap,
        "fit_report": report_to_dict(report) if report else None,
    }


def model_from_dict(doc: dict) -> tuple[MaxEntModel, FitReport | None]:
    if doc.get("format") != FORMATS["model"]:
        raise ValidationError(f"not a model document: {doc.get('format')!r}")
    cs = constraints_from_dict(doc["constraints"])
    # digests of the embedded documents as stored: a re-spelled value fails
    if _digest(doc["constraints"]) != doc["constraints_digest"]:
        raise ValidationError("model constraint digest mismatch")
    if _digest(doc["constraints"]["schema"]) != doc["schema_digest"]:
        raise ValidationError("model schema digest mismatch")
    model = MaxEntModel(
        cs, np.array([float(v) for v in doc["lambda"]]), doc["enum_cap"]
    )
    report = report_from_dict(doc["fit_report"]) if doc.get("fit_report") else None
    return model, report


# -- weight vectors -----------------------------------------------------------


def constraint_order_digest(cs: ConstraintSet) -> str:
    """Digest over the ordered (pattern, target) list raking consumed."""
    items = [[list(map(list, c.pattern.fixed)), _real(c.target)] for c in cs.constraints]
    return digest_text(json.dumps(items))


def weights_to_dict(wv: WeightVector, cs: ConstraintSet | None = None,
                    prov: dict | None = None) -> dict:
    return {
        "format": FORMATS["weights"],
        "provenance": prov or provenance(),
        "schema": schema_to_dict(wv.schema),
        "schema_digest": schema_digest(wv.schema),
        "constraint_order_digest": constraint_order_digest(cs) if cs else None,
        "weights": [_real(v) for v in wv.weights],
    }


def weights_from_dict(doc: dict) -> WeightVector:
    if doc.get("format") != FORMATS["weights"]:
        raise ValidationError(f"not a weight-vector document: {doc.get('format')!r}")
    schema = schema_from_dict(doc["schema"])
    if _digest(doc["schema"]) != doc.get("schema_digest"):
        raise ValidationError("weights schema digest mismatch")
    return WeightVector(schema, np.array([float(v) for v in doc["weights"]]))


# -- evaluation results ---------------------------------------------------------


def eval_to_dict(result: EvalResult, prov: dict | None = None) -> dict:
    return {
        "format": FORMATS["eval"],
        "provenance": prov or provenance(),
        "mre": result.mre,
        "per_arity": {str(k): v for k, v in sorted(result.per_arity.items())},
        "n": result.n,
        "seconds": None,
        "worst": [
            {
                "index": w.index,
                "pattern": w.pattern,
                "target": w.target,
                "achieved": w.achieved,
                "rel_error": w.rel_error,
            }
            for w in result.worst
        ],
    }


# -- file helpers ---------------------------------------------------------------


def save_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_constraints(cs: ConstraintSet, path, prov: dict | None = None) -> None:
    save_json(constraints_to_dict(cs, prov), path)


def load_constraints(path) -> ConstraintSet:
    return constraints_from_dict(load_json(path))


def save_model(model: MaxEntModel, path, report: FitReport | None = None,
               prov: dict | None = None) -> None:
    save_json(model_to_dict(model, report, prov), path)


def load_model(path) -> tuple[MaxEntModel, FitReport | None]:
    return model_from_dict(load_json(path))


def save_weights(wv: WeightVector, path, cs: ConstraintSet | None = None,
                 prov: dict | None = None) -> None:
    save_json(weights_to_dict(wv, cs, prov), path)


def load_weights(path) -> WeightVector:
    return weights_from_dict(load_json(path))
