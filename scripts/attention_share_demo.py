#!/usr/bin/env python3
"""Plot-free look at how much attention the sequence branch spends on the
cross-modality slots as generation proceeds.

For a traced generation, prints the per-position condensed slot share of
the concatenated-attention weights next to the c/(c+m) reference curve
(the share a uniform attender over c slots and m generated tokens would
give the slots).
"""

import argparse

import numpy as np

from protdat.evaluation import condense_cca, guidance_reference_curve
from protdat.generation import (MODE_TEXT_ONLY, GenerationParams, PromptSpec, generate,
                                trace_attention)
from protdat.model import load_checkpoint


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--text", required=True)
    ap.add_argument("--max-len", type=int, default=48)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--embeddings", default=None)
    ap.add_argument("--record-id", default=None, dest="record_id")
    args = ap.parse_args()

    params = load_checkpoint(args.ckpt)
    provider = params.text_encoder(args.embeddings)
    prompt = PromptSpec(mode=MODE_TEXT_ONLY, text=args.text, record_id=args.record_id)
    result = generate(prompt, params, GenerationParams(max_len=args.max_len, seed=args.seed),
                      text_provider=provider)
    trace = trace_attention(prompt, result.sequence, params, text_provider=provider)
    c = params.config.c_size
    mean_cca = np.mean(trace.cca, axis=0)  # average over layers
    slot_share = condense_cca(mean_cca, c)[:, 0]
    print(f"generated {len(result.sequence)} residues; slot share vs c/(c+m) reference:")
    print(f"{'m':>4} {'slot share':>11} {'reference':>10}")
    for m in range(len(slot_share)):
        print(f"{m:>4} {slot_share[m]:>11.4f} {guidance_reference_curve(c, m):>10.4f}")


if __name__ == "__main__":
    main()
