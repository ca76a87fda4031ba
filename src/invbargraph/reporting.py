"""Check results, and the one way the verifiers turn a checked identity into one."""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple


class CheckResult(NamedTuple):
    """Outcome of one verified identity (or family of identities)."""

    formula: str
    n_range: str
    params: str = ""
    status: str = "pass"
    first_mismatch: str | None = None

    def to_json_obj(self) -> dict[str, object]:
        return {
            "formula-id": self.formula,
            "n-range": self.n_range,
            "parameter-point": self.params,
            "status": self.status,
            "first-mismatch": self.first_mismatch,
        }


def _show(value: Any) -> str:
    to_text = getattr(value, "to_text", None)
    try:
        return to_text() if to_text is not None else str(value)
    except ValueError:  # an integer past Python's int->str digit limit
        return "(a number too long to print)"


def check(
    formula: str, n_range: str, params: str, cases: Iterable[tuple[Any, Any, Any]]
) -> CheckResult:
    """Pass, or fail at the first `(where, got, want)` case with `got != want`.

    `cases` is read lazily, so no case after the first mismatch is computed,
    and the three values are only turned into text for that mismatch (with
    `to_text()` where they have it).  The result carries `formula`,
    `n_range` and `params` either way.
    """
    for where, got, want in cases:
        if got != want:
            return CheckResult(formula, n_range, params, "fail",
                               f"{_show(where)}: {_show(got)} != {_show(want)}")
    return CheckResult(formula, n_range, params)
