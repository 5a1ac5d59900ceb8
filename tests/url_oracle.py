"""The URL token pattern as one regex, kept as the oracle for the
linear-time tokenizer behind ``Comment.url_tokens``.

Tried at every word boundary, the scheme-less alternative rescans a
dotted run from each label in it, so ``findall`` is quadratic in the
length of a run: keep the texts given to it short.
"""

import re

URL_RE = re.compile(
    r"""(?i)\b(
        https?://[^\s<>"']+
        |
        (?:[a-z0-9][a-z0-9-]*\.)+[a-z]{2,}/[^\s<>"']*
    )""",
    re.VERBOSE,
)


def oracle_tokens(text: str) -> tuple[str, ...]:
    return tuple(URL_RE.findall(text))
