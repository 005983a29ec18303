"""
From question text to preset
============================

Different question styles want different selection behavior: "how many
times..." wants relevance mass on the matching frames, "what is this
video about" wants broad coverage. The router is two small pieces: a
bag-of-words classifier over question types, and a lookup table mapping
each type to whichever preset validated best for it.
"""

import numpy as np

import framesel as fs

# --- a toy training set, 40 questions per type ------------------------

TEMPLATES = {
    "count": "how many {} appear in the video",
    "needle": "find the exact moment the {} shows up",
    "order": "did the {} happen before or after the {}",
    "topic_reasoning": "what is the overall theme concerning {}",
    "anomaly_reco": "spot anything unusual or strange about the {}",
}
NOUNS = ["dog", "car", "door", "crowd", "light", "sign", "chef", "train"]

rng = np.random.default_rng(0)
examples = []
for qtype, template in TEMPLATES.items():
    for _ in range(40):
        picks = rng.choice(NOUNS, size=template.count("{}"), replace=True)
        examples.append((template.format(*picks), qtype))

model = fs.train_classifier(examples, epochs=10, learning_rate=0.5)
print(f"classifier: {len(model.types)} types, vocabulary of {len(model.vocabulary)} tokens")
print("loss per epoch:", [round(v, 4) for v in model.training_loss])

# prediction returns the type plus the full class distribution
for question in ("how many chefs appear in the video",
                 "what is the overall theme concerning trains"):
    qtype, probs = fs.predict_type(model, question)
    confidence = float(probs.max())
    print(f"  {question!r} -> {qtype} (p = {confidence:.3f})")

# --- the routing table ------------------------------------------------
# Built from measured per-type accuracy of each preset on a validation
# set. Here those numbers are invented for the demo; in use they come
# from a CSV via read_accuracy_table.

accuracy = {
    "count":           {"relevance_only": 0.61, "relevance_oriented": 0.66, "coverage_oriented": 0.58, "coverage_only": 0.45},
    "needle":          {"relevance_only": 0.72, "relevance_oriented": 0.69, "coverage_oriented": 0.55, "coverage_only": 0.41},
    "order":           {"relevance_only": 0.50, "relevance_oriented": 0.59, "coverage_oriented": 0.59, "coverage_only": 0.52},
    "topic_reasoning": {"relevance_only": 0.44, "relevance_oriented": 0.52, "coverage_oriented": 0.60, "coverage_only": 0.64},
    "anomaly_reco":    {"relevance_only": 0.55, "relevance_oriented": 0.62, "coverage_oriented": 0.57, "coverage_only": 0.49},
}
table = fs.fit_routing(accuracy)
print("\nfitted routing table:")
for qtype, preset_name in table.mapping.items():
    print(f"  {qtype:16s} -> {preset_name}")
# note the tie in the order row: relevance_oriented and coverage_oriented
# both hit 0.59, and the fixed preset order breaks the tie

# --- composed: question in, preset out --------------------------------
preset = fs.route(model, table, "how many dogs appear in the video")
print(f"\nrouted preset: {preset.name} (alpha={preset.alpha}, beta={preset.beta})")

# When the true type is known (evaluation harnesses, mostly), skip the
# classifier and look the table up directly.
oracle_preset = fs.route_for_type(table, "topic_reasoning")
print(f"oracle-routed preset for topic_reasoning: {oracle_preset.name}")

# Unknown types fail loudly rather than silently defaulting.
try:
    fs.route_for_type(table, "plotQA")
except fs.AlignmentError as exc:
    print("unmapped type rejected:", exc)
