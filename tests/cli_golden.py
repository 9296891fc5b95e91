"""Report bytes and exit codes of `hyperq check` and `hyperq verify`, recorded
before `spectral` and `check` were routed through `hyperq.reporting`.

`CHECK` is keyed by (check, host, format), with hosts K_7, B_9, the Fano
plane and B_8 as written by `hyperq gen`; `VERIFY` by (verify arguments,
format).  Each value is (exit code, stdout).  The `VERIFY` floats are those
of version 0.2.0, whose adjacency kernel sums over runs of shared prefixes."""

CHECK = {
    ('fano', 'k7', 'text'): (1, (
        'contains\n'
        'embedding: 0 1 2 3 4 5 6\n'
    )),
    ('fano', 'k7', 'json'): (1, (
        '{\n'
        '  "check": "fano",\n'
        '  "verdict": "contains",\n'
        '  "ok": false,\n'
        '  "embedding": [\n'
        '    0,\n'
        '    1,\n'
        '    2,\n'
        '    3,\n'
        '    4,\n'
        '    5,\n'
        '    6\n'
        '  ]\n'
        '}\n'
    )),
    ('fano', 'k7', 'csv'): (1, (
        'check,verdict,embedding\n'
        'fano,contains,0 1 2 3 4 5 6\n'
    )),
    ('fano', 'b9', 'text'): (0, (
        'fano-free\n'
    )),
    ('fano', 'b9', 'json'): (0, (
        '{\n'
        '  "check": "fano",\n'
        '  "verdict": "fano-free",\n'
        '  "ok": true,\n'
        '  "embedding": null\n'
        '}\n'
    )),
    ('fano', 'b9', 'csv'): (0, (
        'check,verdict,embedding\n'
        'fano,fano-free,\n'
    )),
    ('two-color', 'fano', 'text'): (1, (
        'not 2-colorable\n'
    )),
    ('two-color', 'fano', 'json'): (1, (
        '{\n'
        '  "check": "two-color",\n'
        '  "verdict": "not 2-colorable",\n'
        '  "ok": false,\n'
        '  "coloring": null\n'
        '}\n'
    )),
    ('two-color', 'fano', 'csv'): (1, (
        'check,verdict,coloring\n'
        'two-color,not 2-colorable,\n'
    )),
    ('two-color', 'b8', 'text'): (0, (
        '2-colorable\n'
        'coloring: 0 0 0 0 1 1 1 1\n'
    )),
    ('two-color', 'b8', 'json'): (0, (
        '{\n'
        '  "check": "two-color",\n'
        '  "verdict": "2-colorable",\n'
        '  "ok": true,\n'
        '  "coloring": [\n'
        '    0,\n'
        '    0,\n'
        '    0,\n'
        '    0,\n'
        '    1,\n'
        '    1,\n'
        '    1,\n'
        '    1\n'
        '  ]\n'
        '}\n'
    )),
    ('two-color', 'b8', 'csv'): (0, (
        'check,verdict,coloring\n'
        'two-color,2-colorable,0 0 0 0 1 1 1 1\n'
    )),
}

VERIFY = {
    ('bounds 4:12', 'text'): (0, (
        'op      n   inputs                       value               bound                     pass\n'
        'bounds  4   operator=signless_laplacian  6.0                 6.0..6.0                  true\n'
        'bounds  5   operator=signless_laplacian  10.899710195949178  10.8..11.0                true\n'
        'bounds  6   operator=signless_laplacian  18.0                18.0..18.0                true\n'
        'bounds  7   operator=signless_laplacian  25.885767819776195  25.714285714285715..26.0  true\n'
        'bounds  8   operator=signless_laplacian  36.0                36.0..36.0                true\n'
        'bounds  9   operator=signless_laplacian  46.881063880271505  46.666666666666664..47.0  true\n'
        'bounds  10  operator=signless_laplacian  60.000000000000014  60.0..60.0                true\n'
        'bounds  11  operator=signless_laplacian  73.87889689595353   73.63636363636364..74.0   true\n'
        'bounds  12  operator=signless_laplacian  90.00000000000001   90.0..90.0                true\n'
    )),
    ('bounds 4:12', 'json'): (0, (
        '[\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 4,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 6.0,\n'
        '    "bound": "6.0..6.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 5,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 10.899710195949178,\n'
        '    "bound": "10.8..11.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 6,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 18.0,\n'
        '    "bound": "18.0..18.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 7,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 25.885767819776195,\n'
        '    "bound": "25.714285714285715..26.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 8,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 36.0,\n'
        '    "bound": "36.0..36.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 9,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 46.881063880271505,\n'
        '    "bound": "46.666666666666664..47.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 10,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 60.000000000000014,\n'
        '    "bound": "60.0..60.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 11,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 73.87889689595353,\n'
        '    "bound": "73.63636363636364..74.0",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "bounds",\n'
        '    "n": 12,\n'
        '    "inputs": "operator=signless_laplacian",\n'
        '    "value": 90.00000000000001,\n'
        '    "bound": "90.0..90.0",\n'
        '    "pass": true\n'
        '  }\n'
        ']\n'
    )),
    ('bounds 4:12', 'csv'): (0, (
        'op,n,inputs,value,bound,pass\n'
        'bounds,4,operator=signless_laplacian,6.0,6.0..6.0,true\n'
        'bounds,5,operator=signless_laplacian,10.899710195949178,10.8..11.0,true\n'
        'bounds,6,operator=signless_laplacian,18.0,18.0..18.0,true\n'
        'bounds,7,operator=signless_laplacian,25.885767819776195,25.714285714285715..26.0,true\n'
        'bounds,8,operator=signless_laplacian,36.0,36.0..36.0,true\n'
        'bounds,9,operator=signless_laplacian,46.881063880271505,46.666666666666664..47.0,true\n'
        'bounds,10,operator=signless_laplacian,60.000000000000014,60.0..60.0,true\n'
        'bounds,11,operator=signless_laplacian,73.87889689595353,73.63636363636364..74.0,true\n'
        'bounds,12,operator=signless_laplacian,90.00000000000001,90.0..90.0,true\n'
    )),
    ('splits 8:10', 'text'): (0, (
        'op      n   inputs  value              bound     pass\n'
        'splits  8   a=1..7  35.99999999999999  best_a=4  true\n'
        'splits  9   a=1..8  46.88106388027148  best_a=5  true\n'
        'splits  10  a=1..9  60.0               best_a=5  true\n'
    )),
    ('splits 8:10', 'json'): (0, (
        '[\n'
        '  {\n'
        '    "op": "splits",\n'
        '    "n": 8,\n'
        '    "inputs": "a=1..7",\n'
        '    "value": 35.99999999999999,\n'
        '    "bound": "best_a=4",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "splits",\n'
        '    "n": 9,\n'
        '    "inputs": "a=1..8",\n'
        '    "value": 46.88106388027148,\n'
        '    "bound": "best_a=5",\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "splits",\n'
        '    "n": 10,\n'
        '    "inputs": "a=1..9",\n'
        '    "value": 60.0,\n'
        '    "bound": "best_a=5",\n'
        '    "pass": true\n'
        '  }\n'
        ']\n'
    )),
    ('splits 8:10', 'csv'): (0, (
        'op,n,inputs,value,bound,pass\n'
        'splits,8,a=1..7,35.99999999999999,best_a=4,true\n'
        'splits,9,a=1..8,46.88106388027148,best_a=5,true\n'
        'splits,10,a=1..9,60.0,best_a=5,true\n'
    )),
    ('criterion 50:52', 'text'): (0, (
        'op          n   inputs                  value                bound               pass\n'
        'condition1  50  pi=0.75 r=3 sigma=0.05  37.5                 125.0               true\n'
        'condition1  51  pi=0.75 r=3 sigma=0.05  50.375               130.05              true\n'
        'condition1  52  pi=0.75 r=3 sigma=0.05  39.0                 135.20000000000002  true\n'
        'condition2  50  pi=0.75 r=3 sigma=0.05  0.0                  2.5                 true\n'
        'condition2  51  pi=0.75 r=3 sigma=0.05  0.34574887501685225  2.5500000000000003  true\n'
        'condition2  52  pi=0.75 r=3 sigma=0.05  0.0                  2.6                 true\n'
    )),
    ('criterion 50:52', 'json'): (0, (
        '[\n'
        '  {\n'
        '    "op": "condition1",\n'
        '    "n": 50,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 37.5,\n'
        '    "bound": 125.0,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "condition1",\n'
        '    "n": 51,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 50.375,\n'
        '    "bound": 130.05,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "condition1",\n'
        '    "n": 52,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 39.0,\n'
        '    "bound": 135.20000000000002,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "condition2",\n'
        '    "n": 50,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 0.0,\n'
        '    "bound": 2.5,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "condition2",\n'
        '    "n": 51,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 0.34574887501685225,\n'
        '    "bound": 2.5500000000000003,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "condition2",\n'
        '    "n": 52,\n'
        '    "inputs": "pi=0.75 r=3 sigma=0.05",\n'
        '    "value": 0.0,\n'
        '    "bound": 2.6,\n'
        '    "pass": true\n'
        '  }\n'
        ']\n'
    )),
    ('criterion 50:52', 'csv'): (0, (
        'op,n,inputs,value,bound,pass\n'
        'condition1,50,pi=0.75 r=3 sigma=0.05,37.5,125.0,true\n'
        'condition1,51,pi=0.75 r=3 sigma=0.05,50.375,130.05,true\n'
        'condition1,52,pi=0.75 r=3 sigma=0.05,39.0,135.20000000000002,true\n'
        'condition2,50,pi=0.75 r=3 sigma=0.05,0.0,2.5,true\n'
        'condition2,51,pi=0.75 r=3 sigma=0.05,0.34574887501685225,2.5500000000000003,true\n'
        'condition2,52,pi=0.75 r=3 sigma=0.05,0.0,2.6,true\n'
    )),
    ('deletion 7:9', 'text'): (0, (
        'op        n  inputs   value               bound               pass\n'
        'deletion  7  B_7 w=0  18.0                16.570988008119144  true\n'
        'deletion  8  B_8 w=0  25.885767819776195  24.571428571428573  true\n'
        'deletion  9  B_9 w=0  36.0                34.5855263404505    true\n'
    )),
    ('deletion 7:9', 'json'): (0, (
        '[\n'
        '  {\n'
        '    "op": "deletion",\n'
        '    "n": 7,\n'
        '    "inputs": "B_7 w=0",\n'
        '    "value": 18.0,\n'
        '    "bound": 16.570988008119144,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "deletion",\n'
        '    "n": 8,\n'
        '    "inputs": "B_8 w=0",\n'
        '    "value": 25.885767819776195,\n'
        '    "bound": 24.571428571428573,\n'
        '    "pass": true\n'
        '  },\n'
        '  {\n'
        '    "op": "deletion",\n'
        '    "n": 9,\n'
        '    "inputs": "B_9 w=0",\n'
        '    "value": 36.0,\n'
        '    "bound": 34.5855263404505,\n'
        '    "pass": true\n'
        '  }\n'
        ']\n'
    )),
    ('deletion 7:9', 'csv'): (0, (
        'op,n,inputs,value,bound,pass\n'
        'deletion,7,B_7 w=0,18.0,16.570988008119144,true\n'
        'deletion,8,B_8 w=0,25.885767819776195,24.571428571428573,true\n'
        'deletion,9,B_9 w=0,36.0,34.5855263404505,true\n'
    )),
    ('extremal 8 --samples 3 --seed 5', 'text'): (0, (
        'op        n  inputs            value              bound  pass\n'
        'extremal  8  samples=3 seed=5  35.28400549541667  36.0   true\n'
    )),
    ('extremal 8 --samples 3 --seed 5', 'json'): (0, (
        '[\n'
        '  {\n'
        '    "op": "extremal",\n'
        '    "n": 8,\n'
        '    "inputs": "samples=3 seed=5",\n'
        '    "value": 35.28400549541667,\n'
        '    "bound": 36.0,\n'
        '    "pass": true\n'
        '  }\n'
        ']\n'
    )),
    ('extremal 8 --samples 3 --seed 5', 'csv'): (0, (
        'op,n,inputs,value,bound,pass\n'
        'extremal,8,samples=3 seed=5,35.28400549541667,36.0,true\n'
    )),
}

# `GEN` holds the exit code and the stdout sha256 of `hyperq gen`, recorded
# before serialize wrote its text through one byte buffer.  It is keyed by
# the gen arguments; `expansion` reads the 2-graph K_4 from `GEN_K4`.
GEN_K4 = '2 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n'

GEN = {
    'bn 8': (0, 'f2a0f95ab235cf3684cff5215300ae707ff4a4ccced626362c4fe1bc6ad86470'),
    'bn 61': (0, '66a2f789aa1740e9bc85259dea6702dc8fe8e49b9fc0227602e98b71c0fb2b62'),
    'fano': (0, 'a5082f5383281bd22f7229f5ac62db9b0d6908d164114fd89a079b079f81d770'),
    'complete 7 3': (0, '3df4ce2b3f914af75152fcacbf8b686ed9a5ab96375f200c7dfd8763cd69f47e'),
    'two-part 5 4': (0, '59a66443cb24fbc0916d82f07e4c6e2badd05605b1110433bb60229945714ff0'),
    'expansion K4 3': (0, '65f97fe1068321dbef08ad0f10a0cc1bffcac4a638aa2f79fee7288ad2ad4805'),
    'expansion K4 4': (0, 'c4858c85c5595b883302eb937841f17b8087dbe16e1adf34355888fcad87f428'),
}
