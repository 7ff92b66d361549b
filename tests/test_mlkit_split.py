"""Generated differential test: screened split search == per-position scan.

``DecisionTreeRegression._best_split`` screens every split of a node in
one numpy pass and rescores the near-best ones with the scalar formula;
``tests/reference_tree.py`` scores every legal position with that
formula.  Hypothesis draws nodes of 2–80 rows and 1–25 columns (normal,
small-integer, rounded, copied or mirrored, and widely scaled columns;
normal, integer, log-time and 1e9-offset targets) and tree settings.
Every fit runs once as shipped and once with the oracle patched in, and
the two must agree bit for bit: each node's feature, threshold and
prediction, the feature importances, the random generator's state after
the fit, and the predictions of gradient boosting (with and without
subsampling) and of a random forest.

Tier-1 runs a small derandomized profile.  ``make fuzz`` sets
``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import math
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference_tree import reference_best_split

from repro.mlkit import (
    DecisionTreeRegression,
    GradientBoostingRegression,
    RandomForestRegression,
)

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

COLUMNS = ("normal", "small-integer", "rounded", "repeated", "scaled")
TARGETS = ("normal", "integer", "log-times", "offset")


def column(kind: str, rng: np.random.Generator, earlier: list[np.ndarray], n: int):
    if kind == "small-integer":
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "rounded":
        return np.round(rng.normal(size=n), 1)
    if kind == "repeated" and earlier:
        # A copy of an earlier column, possibly mirrored: a mirrored copy
        # ties exactly at the mirrored position when the sums are exact.
        return earlier[rng.integers(len(earlier))] * rng.choice((1.0, -1.0))
    if kind == "repeated":
        return rng.choice(rng.normal(size=3), size=n)
    if kind == "scaled":
        return rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0)
    return rng.normal(size=n)


def target(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "integer":
        return rng.integers(-5, 6, size=n).astype(float)
    if kind == "log-times":
        return np.log(rng.uniform(1e-4, 1.0, size=n))
    if kind == "offset":
        return 1e9 + rng.normal(size=n)
    return rng.normal(size=n)


@st.composite
def nodes(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    kinds = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=25))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns: list[np.ndarray] = []
    for kind in kinds:
        columns.append(column(kind, rng, columns, n))
    return dict(
        X=np.column_stack(columns),
        y=target(draw(st.sampled_from(TARGETS)), rng, n),
        min_samples_leaf=draw(st.integers(min_value=1, max_value=3)),
        max_depth=draw(st.integers(min_value=1, max_value=8)),
        max_features=draw(st.none() | st.integers(min_value=1, max_value=len(kinds) + 1)),
        seed=draw(st.none() | st.integers(min_value=0, max_value=2**16)),
    )


#: A gradient-boosting node of Table IV at N=1 (39 rows, 5 counter
#: features).  Feature 4 at -0.7078480575557916 beats feature 1 at
#: -0.3697527387368742 by one ulp (0.05514918591511983 vs ...82), but
#: the ``x * x`` screen ranks feature 1 first.
TABLE4_N1 = dict(
    X=[
        [0.023574713948978757, -0.3166299697733347, 0.18445154429609176, -0.16025856730124227, -0.7342683081985177],
        [-0.23750985452051712, 2.976304267454557, 0.598587840118686, 1.8071597759281548, -0.7827819077462478],
        [-0.19457029410584506, -0.3767040602047428, -0.20048678107924167, -0.24083019068058617, -0.6669080461589638],
        [-0.23496620765697024, -0.4125367337428385, -0.3797209720400306, -0.3882534356649704, 0.07388220170581539],
        [-0.26920700727641367, -0.427112442829626, -0.4839284035361616, -0.4524634982964307, 0.16540590186390478],
        [-0.2122888311806971, -0.4106776866851106, -0.39123503920541536, -0.3977998046511208, -0.34274452305461056],
        [-0.18975761301626276, -0.4238333549706318, -0.43871590140253147, -0.43537184776988613, 0.09493787668528707],
        [-0.2475803220431169, -0.43092513761807105, -0.5181033164240081, -0.47041284826016627, 0.1942714240291713],
        [-0.292678437876987, -0.4249878877400287, -0.47918384273475967, -0.4505685814589068, -0.35224932674967946],
        [-0.2938079909046741, -0.4290324062165309, -0.5153864428844082, -0.4651120735298964, 0.0504301620746271],
        [-0.20832795737824097, -0.4311569454530975, -0.5214097548673168, -0.47075580331121314, 0.16372707890806226],
        [-0.1780095196169611, -0.42941316949842123, -0.5077000942637732, -0.4588010218074588, -0.3456232612473269],
        [-0.5651202841016234, 0.3973136001078716, 0.02508914945197698, 0.05444556229274882, -0.791272136512823],
        [-0.38558256720121015, -0.3730567445120981, 0.06702953892160299, -0.2399696256706186, -0.6532186505386016],
        [-0.2735497403463403, -0.4201970681774157, -0.44269889650894406, -0.43816383192990666, 0.44102114789367036],
        [-0.24192128683163677, -0.4246478159529656, -0.45955095940104473, -0.44088368217616636, 1.6522257132442395],
        [-0.45963196824452884, 2.402394242124059, 3.035745774816728, 3.8984646573382697, -0.7794865629474166],
        [-0.28549014262582756, -0.3838293873136663, -0.1814657488657581, -0.3079927548059834, -0.5959834972276153],
        [-0.25258574244572923, -0.431570704949777, -0.5275120497100015, -0.4733326996469989, 3.6541101807696896],
        [-0.32565470004485964, 3.1196762006503325, 1.7429282806305926, 1.9562577702527086, -0.7823981456675488],
        [-0.1519264216335135, -0.38180583709969607, -0.15318863166582397, -0.2884856567008563, -0.6744952478496401],
        [-0.16726220026950817, -0.43253486253440154, -0.5362234207630918, -0.4735540897377044, -0.1251450508354085],
        [-0.27772717330691193, -0.42977928907321017, -0.5169261927501358, -0.4687128447566354, -0.32366341934680676],
        [-0.26398783482368693, -0.4307791809864916, -0.5208343118549441, -0.4685147809975982, -0.08868952237689717],
        [-0.44563338325822666, 0.9793295384292171, 1.3291218101020794, 3.1613538151411875, -0.7829855576253879],
        [-0.24026160061249324, -0.4323855089609934, -0.530556679184502, -0.4743944834592045, 1.2304663630686987],
        [-0.3426997481662231, -0.34233745248305314, -0.3035838876900986, -0.1686302619416705, -0.7756224529920978],
        [-0.20638751860441149, -0.4339509986119367, -0.5498322988899793, -0.48350041826998497, 1.9496420010120143],
        [-0.2526431764026462, -0.4349604898761452, -0.5560756321046613, -0.486432941845553, 1.9752178465974832],
        [-0.21204416222309477, -0.4344309496470297, -0.5523630965495371, -0.4842411133487695, 2.0130144315692347],
        [-0.21616378465527433, -0.412661554682089, -0.43543132919983285, -0.4199726609447581, -0.6814278069130655],
        [-0.27336977277446056, -0.3664487329616503, 0.060912501957429144, -0.05059596286382517, -0.7620402162596634],
        [-0.25437095150244626, -0.43176016578002335, -0.5314374649287847, -0.4712079770349714, -0.11220257300875834],
        [-0.24098643329901023, -0.4326298005860231, -0.5370037977269975, -0.47609330353658097, -0.10259479756025175],
        [-0.2000154222759938, -0.43029355399292696, -0.5057190575556221, -0.46441097137250836, -0.10708812348427782],
        [4.809944034767617, 2.8588573525907055, 4.1494217602159065, 1.1034128645369004, -0.790522755710821],
        [3.543043647966368, -0.1088496448936333, 0.7108757448011404, 0.11347703496006564, -0.7905844514184965],
        [0.7892174771449487, 0.1689109209295355, 0.8397908881988685, 0.32680244453533663, -0.7915177309586662],
        [-0.07205982260156614, -0.42086658447862063, -0.46768082972369607, -0.45165619121320244, 0.07716174296769573],
    ],
    y=[
        -0.027006520241156018, -0.05650379487679125, -0.012164447878297402,
        0.03786919050499593, 0.027939643939352443, 0.006215257738363178,
        0.029640508108040198, 0.034610292118272046, 0.006215257738363178,
        0.03786919050499593, 0.034610292118272046, 0.006215257738363178,
        -0.05415929771142913, -0.009674975459845747, 0.032110063622986296,
        0.02628033248747741, -0.04586711366552887, -0.0063848374153341325,
        0.21858583458561154, -0.05071336612129507, -0.01324237840117437,
        0.01752272456132742, 0.01322809771156308, 0.02092738830455998,
        -0.06356320202491617, 0.056977697787082615, -0.03893459583382963,
        0.0485690099176157, 0.04769791324114392, -0.04233019442786823,
        -0.016086868713700575, -0.031918365464154164, 0.01930950733448089,
        0.01930950733448089, 0.01930950733448089, -0.07393953021612987,
        -0.04932045812699748, -0.16802614836472074, -0.0011763797886565897,
    ],
    min_samples_leaf=2,
    max_depth=3,
    max_features=None,
    seed=None,
)

#: Columns 19 and 28 of a 39 x 40 gradient-boosting node of Table IV at
#: N=8.  They tie exactly at 91.97791261482078, so the first column wins,
#: but the screen puts the second one an ulp ahead.
TABLE4_N8 = dict(
    X=[
        [-0.7421473274430784, -0.07310476981544119],
        [-0.804221565636848, 0.06585668812557373],
        [-0.6671741740014017, -0.21593025827059362],
        [0.05702009363556322, -0.3120565329791325],
        [0.18188998094241807, -0.361111797350943],
        [-0.3325869304444225, -0.3252490133004228],
        [0.05201226139232775, -0.3554212601117277],
        [0.1617326431298606, -0.3776033604145592],
        [-0.32731271294044134, -0.35835362403252846],
        [0.05006104626636616, -0.3722757208608927],
        [0.1533438815665984, -0.3763960957482533],
        [-0.3248072578183943, -0.3733413074995773],
        [-0.8156621005650528, -0.058885389415732375],
        [-0.6513254272211894, -0.10369010365255137],
        [0.44425153186279315, -0.3427873431338491],
        [1.566726804822118, -0.3597924549856913],
        [-0.8009486691261615, 0.9437145637823697],
        [-0.5871515047098174, -0.20986578789047447],
        [3.4674691531815207, -0.3776437921670648],
        [-0.8051530768957351, 0.7463103554090498],
        [-0.6770388974746506, -0.25834591361208625],
        [-0.13784020758227933, -0.38162031278505393],
        [-0.3139413655552448, -0.3699175228447234],
        [-0.06902584489685938, -0.3759118788739018],
        [-0.8042480412114821, 0.9761916371781401],
        [1.2220341914881405, -0.38156707459847733],
        [-0.7897931202718448, -0.05555290951707963],
        [2.23224552510852, -0.3873806659533951],
        [2.042021374133447, -0.38885336479311544],
        [1.983720545856576, -0.38828857628726166],
        [-0.6707319067458314, -0.3474842893012495],
        [-0.7742847378578329, -0.05784150642849618],
        [-0.07149154839548277, -0.37930036445535315],
        [-0.10840530015161907, -0.38226486100735174],
        [-0.10606898232747802, -0.3742653605375854],
        [-0.8139102924982825, 0.5240520244435013],
        [-0.8140045942787102, 0.9291062185399576],
        [-0.8150455564379646, 5.659506749737635],
        [0.2097921091018615, -0.36263502459166297],
    ],
    y=[
        -0.9254609573962442, -2.356504239702444, -0.4282384012257099,
        1.10680174576822, 1.2174167163595921, 0.5779077657491998,
        1.10680174576822, 1.2174167163595921, 0.5779077657491998,
        1.10680174576822, 1.2174167163595921, 0.5779077657491998,
        -3.4793903412660363, -0.3144960678290083, 1.4788390116282977,
        1.9141671584914413, -2.1479966502454975, 0.01356634192464945,
        2.4823120293666077, -2.3929875779599037, -0.47219594093764794,
        0.8278622966914915, 0.6380326733619484, 0.8994009114399488,
        -2.3929875779599037, 1.7113675547047604, -1.7768350353636437,
        2.0514372347535823, 2.0514372347535823, 2.0514372347535823,
        -0.4672177130435724, -1.5034406309318333, 0.8762856241906039,
        0.8762856241906039, 0.8762856241906039, -3.238242548273684,
        -3.238242548273684, -3.4995290770468213, 1.178670069382937,
    ],
    min_samples_leaf=2,
    max_depth=3,
    max_features=None,
    seed=None,
)

#: Column 1 mirrors column 0, so with exact sums the best split of column
#: 0 (position 4) ties with that of column 1 (position 2): visit order,
#: not position, decides.
MIRRORED = dict(
    X=[[float(i), -float(i)] for i in range(6)],
    y=[0.0, 0.0, 0.0, 0.0, 5.0, 5.0],
    min_samples_leaf=1,
    max_depth=1,
    max_features=None,
    seed=None,
)

#: Five rows cannot leave three on each side: the root draws its
#: candidate feature and then has no legal position.
NO_LEGAL_POSITION = dict(
    X=[[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 1.0], [3.0, 1.0, 0.0], [4.0, 3.0, 3.0]],
    y=[0.0, 1.0, 0.0, 2.0, 1.0],
    min_samples_leaf=3,
    max_depth=2,
    max_features=1,
    seed=0,
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def shipped_and_reference(fit):
    """``fit()`` as shipped, then with the per-position scan patched in."""
    shipped = fit()
    with mock.patch.object(DecisionTreeRegression, "_best_split", reference_best_split):
        return shipped, fit()


def fit_tree(case):
    rng = None if case["seed"] is None else np.random.default_rng(case["seed"])
    tree = DecisionTreeRegression(
        max_depth=case["max_depth"],
        min_samples_leaf=case["min_samples_leaf"],
        max_features=case["max_features"],
    ).fit(case["X"], case["y"], rng=rng)
    nodes, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        nodes.append((node.feature, bits(node.threshold), bits(node.prediction)))
        if not node.is_leaf:
            stack += [node.right, node.left]
    state = None if rng is None else rng.bit_generator.state
    return nodes, tree.feature_importances_.tobytes(), state


def fit_ensembles(case):
    X, y = np.asarray(case["X"]), np.asarray(case["y"])
    seed = case["seed"] or 0
    depth = min(case["max_depth"], 3)
    forest = RandomForestRegression(
        n_estimators=3,
        max_depth=depth,
        min_samples_leaf=case["min_samples_leaf"],
        max_features=case["max_features"],
        seed=seed,
    ).fit(X, y)
    boosted = [
        GradientBoostingRegression(
            n_estimators=3, max_depth=depth, subsample=subsample, seed=seed
        ).fit(X, y)
        for subsample in (1.0, 0.7)
    ]
    return [model.predict(X).tobytes() for model in (forest, *boosted)] + [
        forest.feature_importances_.tobytes()
    ]


@settings(
    max_examples=FUZZ_EXAMPLES or 200,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=nodes())
@example(case=TABLE4_N1)
@example(case=TABLE4_N8)
@example(case=MIRRORED)
@example(case=NO_LEGAL_POSITION)
def test_tree_matches_reference(case):
    shipped, reference = shipped_and_reference(lambda: fit_tree(case))
    assert shipped == reference


@settings(
    max_examples=FUZZ_EXAMPLES or 60,
    derandomize=not FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=nodes())
@example(case=TABLE4_N1)
@example(case=TABLE4_N8)
@example(case=NO_LEGAL_POSITION)
def test_ensembles_match_reference(case):
    shipped, reference = shipped_and_reference(lambda: fit_ensembles(case))
    assert shipped == reference


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e-140, 1e150, 1e153, 1e155, 1e200])
def test_extreme_targets_match_reference(scale):
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(30, 4)), 1)
    y = rng.normal(size=30) * scale
    tree = DecisionTreeRegression(min_samples_leaf=1)
    assert repr(tree._best_split(X, y)) == repr(reference_best_split(tree, X, y))
    case = dict(X=X, y=y, min_samples_leaf=1, max_depth=4, max_features=None, seed=None)
    shipped, reference = shipped_and_reference(lambda: fit_tree(case))
    assert shipped == reference


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_first_score_is_never_beaten():
    # Squares overflow, so every score is NaN: the scan keeps the first
    # legal position of the first feature.
    X = np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 2.0], [0.0, 3.0]])
    y = np.array([1e155, -1e155, 2e155, 0.0])
    tree = DecisionTreeRegression(min_samples_leaf=1)
    feature, threshold, decrease = tree._best_split(X, y)
    assert (feature, threshold) == (0, 0.5) and math.isnan(decrease)
    assert repr(reference_best_split(tree, X, y)) == repr((feature, threshold, decrease))
