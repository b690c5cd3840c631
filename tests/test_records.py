"""Golden formats of the dataclass records: every record type writes the same
bytes it always has, reads them back to an equal record, and still loads
files written before its newer fields existed."""

import json

import numpy as np
import pytest

from cbfsteer.bench import ControllerMetricsRow, MetricsRow, ProblemSpec
from cbfsteer.cbf import CbfHyper, TrainReport
from cbfsteer.environment import CloudObservation, CloudSource, Environment, Obstacle, Workspace
from cbfsteer.jsonio import canonical_dumps
from cbfsteer.kinematics import ArmModel
from cbfsteer.planner import PlanResult

RECT = Obstacle(kind="rect", center=(0.5, -0.25), half_extents=(0.1, 0.2))
CIRCLE = Obstacle(kind="circle", center=(-0.75, 1), radius=0.125, velocity=(0.03125, -0.5))
RECT_DOC = '{"center":[0.5,-0.25],"half_extents":[0.1,0.2],"kind":"rect","velocity":[0.0,0.0]}'
CIRCLE_DOC = '{"center":[-0.75,1.0],"kind":"circle","radius":0.125,"velocity":[0.03125,-0.5]}'
DEFAULT_WORKSPACE_DOC = '{"center":[0.0,0.0],"half_extents":[1.5,1.5]}'

# name -> (record, the bytes `canonical_dumps(record.to_json())` has always produced)
GOLDEN = {
    "cloud": (
        CloudObservation(points=[[0.0, 1.5], [-2.25, 0.125]], normals=[[1.0, 0.0], [0.0, -1.0]],
                         source=CloudSource.RAY_CAST),
        '{"normals":[[1.0,0.0],[0.0,-1.0]],"points":[[0.0,1.5],[-2.25,0.125]],'
        '"source":"raycast"}'),
    "rect": (RECT, RECT_DOC),
    "circle": (CIRCLE, CIRCLE_DOC),
    "workspace": (Workspace(), DEFAULT_WORKSPACE_DOC),
    "environment": (
        Environment(obstacles=(RECT, CIRCLE), time=0.375,
                    workspace=Workspace(center=(0.0, 0.5), half_extents=(2.0, 1.5))),
        '{"obstacles":[' + RECT_DOC + ',' + CIRCLE_DOC + '],"time":0.375,'
        '"workspace":{"center":[0.0,0.5],"half_extents":[2.0,1.5]}}'),
    "arm": (
        ArmModel(link_lengths=(0.5, 0.25), link_radius=0.03, base_position=(0.125, -0.5)),
        '{"action_bound":[1.0,1.0],"base_position":[0.125,-0.5],"joint_lower":[-2.8,-2.8],'
        '"joint_upper":[2.8,2.8],"link_lengths":[0.5,0.25],"link_radius":0.03}'),
    "hyper": (
        CbfHyper(alpha_h=2.0, loss_weights=(1.0, 0.5, 0.25)),
        '{"alpha_h":2.0,"eps_margin":0.02,"fd_step":0.001,"gamma":0.05,'
        '"loss_weights":[1.0,0.5,0.25],"r_thres":0.05}'),
    "train-report": (
        TrainReport(epochs=[{"epoch": 0, "loss": 0.5}], wall_seconds=1.25, aborted=True),
        '{"aborted":true,"epochs":[{"epoch":0,"loss":0.5}],"wall_seconds":1.25}'),
    "problem": (
        ProblemSpec(id=7, environment=Environment(obstacles=(CIRCLE,)),
                    q0=np.array([0.1, -0.2, 0.3]), qg=np.array([1.0, 0.0, -1.5]),
                    difficulty="hard"),
        '{"difficulty":"hard","environment":{"obstacles":[' + CIRCLE_DOC + '],"time":0.0,'
        '"workspace":' + DEFAULT_WORKSPACE_DOC + '},"id":7,"q0":[0.1,-0.2,0.3],'
        '"qg":[1.0,0.0,-1.5]}'),
    "metrics-row": (
        MetricsRow(method="hand-cbf", difficulty="easy", sr=0.5, nodes_mean=12.25,
                   time_s_mean=0.0, n_runs=4),
        '{"difficulty":"easy","method":"hand-cbf","n_runs":4,"nodes_mean":12.25,"sr":0.5,'
        '"time_s_mean":0.0}'),
    "controller-row-no-makespan": (
        ControllerMetricsRow(method="cbf-cloud", setting="dynamic_partial",
                             goal_reaching_rate=0.0, safety_rate=0.96875, mean_makespan=None,
                             n_problems=3),
        '{"goal_reaching_rate":0.0,"mean_makespan":null,"method":"cbf-cloud","n_problems":3,'
        '"safety_rate":0.96875,"setting":"dynamic_partial"}'),
    "controller-row": (
        ControllerMetricsRow(method="hand-cbf", setting="static_full", goal_reaching_rate=0.5,
                             safety_rate=1.0, mean_makespan=112.5, n_problems=2),
        '{"goal_reaching_rate":0.5,"mean_makespan":112.5,"method":"hand-cbf","n_problems":2,'
        '"safety_rate":1.0,"setting":"static_full"}'),
    "plan-no-seed": (
        PlanResult(status="node_limit", path=[np.array([0.0, 0.5, -0.5])], controls=[],
                   explored_nodes=30, planning_seconds=0.0, seed=None, tree_size=1),
        '{"controls":[],"explored_nodes":30,"path":[[0.0,0.5,-0.5]],"planning_seconds":0.0,'
        '"seed":null,"status":"node_limit","tree_size":1}'),
    "plan": (
        PlanResult(status="solved", path=[np.array([0.0, 0.5, -0.5]), np.array([0.25, 0.5, -0.75])],
                   controls=[np.array([1.0, 0.0, -1.0])], explored_nodes=3, planning_seconds=0.0,
                   seed=2, tree_size=2),
        '{"controls":[[1.0,0.0,-1.0]],"explored_nodes":3,"path":[[0.0,0.5,-0.5],[0.25,0.5,-0.75]],'
        '"planning_seconds":0.0,"seed":2,"status":"solved","tree_size":2}'),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_writes_the_golden_bytes(name):
    record, golden = GOLDEN[name]
    assert canonical_dumps(record.to_json()) == golden


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_bytes_round_trip(name):
    record, golden = GOLDEN[name]
    loaded = type(record).from_json(json.loads(golden))
    assert canonical_dumps(loaded.to_json()) == golden


@pytest.mark.parametrize("name", ["rect", "circle", "workspace", "environment", "arm", "hyper",
                                  "train-report", "metrics-row", "controller-row-no-makespan",
                                  "controller-row"])
def test_reads_back_an_equal_record(name):
    record, golden = GOLDEN[name]
    assert type(record).from_json(json.loads(golden)) == record


def test_none_shape_fields_are_left_out():
    assert "radius" not in RECT.to_json()
    assert "half_extents" not in CIRCLE.to_json()
    assert Obstacle.from_json(RECT.to_json()).radius is None
    assert Obstacle.from_json(CIRCLE.to_json()).half_extents is None


def test_fields_come_back_with_their_annotated_types():
    cloud = CloudObservation.from_json(json.loads(GOLDEN["cloud"][1]))
    assert cloud.source is CloudSource.RAY_CAST
    assert cloud.points.dtype == float and cloud.points.shape == (2, 2)
    hyper = CbfHyper.from_json(json.loads(GOLDEN["hyper"][1]))
    assert hyper.loss_weights == (1.0, 0.5, 0.25)
    ws = Workspace.from_json({"center": [0, 1], "half_extents": [2, 2]})
    assert ws.center == (0.0, 1.0) and all(type(v) is float for v in ws.center + ws.half_extents)
    plan = PlanResult.from_json(json.loads(GOLDEN["plan"][1]))
    assert all(isinstance(q, np.ndarray) and q.dtype == float for q in plan.path + plan.controls)
    np.testing.assert_array_equal(plan.path[1], [0.25, 0.5, -0.75])
    assert PlanResult.from_json(json.loads(GOLDEN["plan-no-seed"][1])).seed is None
    problem = ProblemSpec.from_json(json.loads(GOLDEN["problem"][1]))
    assert isinstance(problem.environment, Environment)
    assert isinstance(problem.environment.obstacles, tuple)
    assert problem.environment.obstacles == (CIRCLE,)
    assert problem.q0.dtype == float


class TestOldFiles:
    def test_obstacle_without_velocity_stands_still(self):
        obs = Obstacle.from_json(
            {"kind": "rect", "center": [0.5, -0.25], "half_extents": [0.1, 0.2]})
        assert obs == RECT
        assert obs.velocity == (0.0, 0.0)

    def test_environment_without_time_starts_at_zero(self):
        env = Environment.from_json({"obstacles": [json.loads(CIRCLE_DOC)],
                                     "workspace": json.loads(DEFAULT_WORKSPACE_DOC)})
        assert env.time == 0.0
        assert env.obstacles == (CIRCLE,)

    def test_problem_without_difficulty_is_untagged(self):
        doc = json.loads(GOLDEN["problem"][1])
        del doc["difficulty"]
        assert ProblemSpec.from_json(doc).difficulty == "untagged"

    @pytest.mark.parametrize("mode", ["fixed_observation", "refreshed_observation"])
    def test_hyper_with_an_observation_mode_loads(self, mode):
        # checkpoints written while the stencil observation mode was a
        # setting carry an `fd_mode` key; the net type decides it now
        doc = json.loads(GOLDEN["hyper"][1])
        doc["fd_mode"] = mode
        hyper = CbfHyper.from_json(doc)
        assert hyper == GOLDEN["hyper"][0]
        assert canonical_dumps(hyper.to_json()) == GOLDEN["hyper"][1]

    def test_plan_without_tree_size(self):
        doc = json.loads(GOLDEN["plan"][1])
        del doc["tree_size"]
        plan = PlanResult.from_json(doc)
        assert plan.tree_size == 0
        assert plan.explored_nodes == 3 and plan.seed == 2
