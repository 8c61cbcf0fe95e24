"""Prompt rendering for external proposal sources.

Templates are the plain text files packaged under ``templates/``, with
``str.format`` placeholders.  They are not configuration: an external policy
always renders the packaged pair.  Completion responses may edit the
previous attempt with conflict-marker style search/replace blocks:

    <<<<<<< SEARCH
    old text
    =======
    new text
    >>>>>>> REPLACE
"""

from __future__ import annotations

from importlib import resources

from ..errors import PolicyError
from ..lang.ast import GoalDecl
from ..lang.printer import print_goal

SEARCH_OPEN = "<<<<<<< SEARCH"
DIVIDER = "======="
REPLACE_CLOSE = ">>>>>>> REPLACE"

_DEFAULT_FILES = {
    "decompose": "decompose_prompt.txt",
    "complete": "complete_prompt.txt",
}


def load_default(kind: str) -> str:
    filename = _DEFAULT_FILES[kind]
    return (
        resources.files("provekit.prover").joinpath("templates", filename).read_text()
    )


def render_decompose_prompt(goal: GoalDecl, template: str) -> str:
    return template.format(goal_name=goal.name, goal_text=print_goal(goal))


def render_completion_prompt(goal: GoalDecl, feedback_history, template: str) -> str:
    last = feedback_history[-1] if feedback_history else None
    return template.format(
        goal_name=goal.name,
        goal_text=print_goal(goal),
        code=last.proof_text if last else "",
        diagnostics=last.verdict.diagnostics if last else "",
    )


def parse_search_replace(text: str) -> list[tuple[str, str]]:
    """Extract (search, replace) pairs; empty when the text has no blocks.

    Malformed blocks (an opener without its divider and closer, stray
    markers) raise PolicyError rather than being guessed at."""
    lines = text.splitlines()
    edits: list[tuple[str, str]] = []
    i = 0
    while i < len(lines):
        line = lines[i].rstrip()
        if line in (DIVIDER, REPLACE_CLOSE):
            raise PolicyError(f"stray marker {line!r} outside a block")
        if line != SEARCH_OPEN:
            i += 1
            continue
        search_lines: list[str] = []
        replace_lines: list[str] = []
        i += 1
        while i < len(lines) and lines[i].rstrip() != DIVIDER:
            if lines[i].rstrip() in (SEARCH_OPEN, REPLACE_CLOSE):
                raise PolicyError("search block is missing its divider")
            search_lines.append(lines[i])
            i += 1
        if i >= len(lines):
            raise PolicyError("unterminated search block")
        i += 1  # past the divider
        while i < len(lines) and lines[i].rstrip() != REPLACE_CLOSE:
            if lines[i].rstrip() in (SEARCH_OPEN, DIVIDER):
                raise PolicyError("replace block is missing its terminator")
            replace_lines.append(lines[i])
            i += 1
        if i >= len(lines):
            raise PolicyError("unterminated replace block")
        i += 1  # past the closer
        edits.append(("\n".join(search_lines), "\n".join(replace_lines)))
    return edits


def apply_search_replace(base: str, edits: list[tuple[str, str]]) -> str:
    """Apply edits in order; each search text must occur in the current
    text (an empty search appends, or seeds an empty base)."""
    text = base
    for search, replacement in edits:
        if search == "":
            text = replacement if not text else text + "\n" + replacement
            continue
        if search not in text:
            raise PolicyError(f"search text not found: {search[:80]!r}")
        text = text.replace(search, replacement, 1)
    return text
