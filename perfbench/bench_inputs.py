"""Seeded input preparation for the benchmark workloads.

    python3 perfbench/bench_inputs.py {threads2k,dense5k} SEED OUTDIR

writes corpus.jsonl, blacklist.tsv, shorteners.tsv, shortener_hosts.txt
and planted.jsonl through threadwatch's own generator and writers, plus
meta.json with the thread and comment counts. The same seed always gives
the same files. Preparation runs in its own process so that the
generator's memory never sits beside a timed run.
"""

from __future__ import annotations

import json
import os
import random
import sys

from threadwatch import synthgen

CATEGORIES = ("ads", "malware", "phishing", "porn")

# kind -> (generator config for a seed, blacklist size after decoy padding)
KINDS = {
    "threads2k": (lambda seed: synthgen.profile_config("default", seed=seed,
                                                      n_threads=2000), 0),
    "dense5k": (lambda seed: synthgen.GeneratorConfig(seed=seed, n_threads=5000,
                                                      benign_url_prob=0.5), 200_000),
}


def decoy_keys(n: int, seed: int) -> list[tuple[str, str]]:
    """n distinct blacklist keys under the reserved .invalid TLD
    (RFC 2606), so none can match a corpus URL; every fourth is a
    full-URL key."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        host = f"{rng.getrandbits(40):010x}{i:06d}.invalid"
        key = f"{host}/offer{rng.getrandbits(10)}" if i % 4 == 0 else host
        out.append((key, CATEGORIES[rng.getrandbits(2)]))
    return out


def prepare(config: synthgen.GeneratorConfig, out: str, blacklist_keys: int = 0) -> None:
    """Generate and write one corpus; pad its blacklist with decoys up to
    blacklist_keys keys."""
    result = synthgen.generate(config)
    os.makedirs(out, exist_ok=True)
    synthgen.write_corpus_jsonl(result, os.path.join(out, "corpus.jsonl"))
    synthgen.write_blacklist_tsv(result, os.path.join(out, "blacklist.tsv"))
    synthgen.write_shortener_files(result, os.path.join(out, "shorteners.tsv"),
                                   os.path.join(out, "shortener_hosts.txt"))
    synthgen.write_planted_jsonl(result, os.path.join(out, "planted.jsonl"))
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"threads": len(result.corpus.posts),
                   "comments": len(result.corpus.comments)}, fh)
    n_decoys = blacklist_keys - len(result.blacklist)
    if n_decoys > 0:
        with open(os.path.join(out, "blacklist.tsv"), "a", encoding="utf-8") as fh:
            for key, category in decoy_keys(n_decoys, config.seed):
                fh.write(f"{key}\t{category}\n")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in KINDS:
        sys.exit(f"usage: bench_inputs.py {{{','.join(KINDS)}}} SEED OUTDIR")
    config_for, keys = KINDS[sys.argv[1]]
    prepare(config_for(int(sys.argv[2])), sys.argv[3], keys)
