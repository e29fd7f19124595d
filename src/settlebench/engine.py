"""Turn-based settlement simulation.

Cities work tiles of their 21-tile cluster, producing food/production/trade
per turn; trade is split into gold/luxury/science. A city's output over the
first T turns is

    sum_t (gold + luxury + science + food + 2*production + trade)

with turns before founding counting as zero, and the total game output (TGO)
is that sum over all of a player's cities. TGO is the episode reward and the
quantity the placement evaluators compete on.

Division of labour: the *agent* only assigns settler targets (via its
evaluator); the engine walks settlers one tile per turn and founds a city
when a settler sits on its still-legal target. Everything else (citizen
assignment, yields, growth, settler production) is fixed shared dynamics, so
the placement choice is the only evaluator-dependent behaviour.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .world import (
    GameMap,
    MapGenConfig,
    SpecialKind,
    TerrainKind,
    cluster_at,
    cluster_table,
    decode_map,
    encode_map,
    generate_map,
)


class SimulationError(RuntimeError):
    """Stepping a finished game, or an episode in an unusable state."""


@dataclass(frozen=True)
class YieldTriple:
    food: int = 0
    production: int = 0
    trade: int = 0

    def __add__(self, other: "YieldTriple") -> "YieldTriple":
        return YieldTriple(
            self.food + other.food,
            self.production + other.production,
            self.trade + other.trade,
        )


@dataclass(frozen=True)
class OutputPoints:
    gold: int = 0
    luxury: int = 0
    science: int = 0
    food: int = 0
    production: int = 0
    trade: int = 0

    def weighted_total(self) -> int:
        """Production counts double (spendable as half-gold on city projects)."""
        return self.gold + self.luxury + self.science + self.food + 2 * self.production + self.trade


# The game rules, fixed for every game: base yield per terrain, the bonus a
# special resource adds, the trade a river adds, and the center bonus.
TERRAIN_YIELDS = {
    TerrainKind.GRASSLAND: YieldTriple(2, 0, 0),
    TerrainKind.PLAINS: YieldTriple(1, 1, 0),
    TerrainKind.HILLS: YieldTriple(1, 2, 0),
    TerrainKind.FOREST: YieldTriple(1, 2, 0),
    TerrainKind.MOUNTAINS: YieldTriple(0, 2, 0),
    TerrainKind.DESERT: YieldTriple(0, 1, 0),
    TerrainKind.SWAMP: YieldTriple(1, 0, 0),
    TerrainKind.JUNGLE: YieldTriple(1, 0, 0),
    TerrainKind.TUNDRA: YieldTriple(1, 0, 0),
    TerrainKind.OCEAN: YieldTriple(1, 0, 2),
    TerrainKind.DEEP_OCEAN: YieldTriple(1, 0, 1),
}
SPECIAL_BONUSES = {
    SpecialKind.BULL: YieldTriple(production=2),
    SpecialKind.OASIS: YieldTriple(food=3),
    SpecialKind.GEMS: YieldTriple(trade=3),
    SpecialKind.GOLD: YieldTriple(trade=4),
    SpecialKind.IRON: YieldTriple(production=2),
    SpecialKind.WINE: YieldTriple(trade=3),
    SpecialKind.SILK: YieldTriple(trade=2),
    SpecialKind.PHEASANT: YieldTriple(food=2),
    SpecialKind.WHEAT: YieldTriple(food=2),
    SpecialKind.HORSES: YieldTriple(production=1),
    SpecialKind.FRUIT: YieldTriple(food=2),
    SpecialKind.FURS: YieldTriple(trade=2),
    SpecialKind.DEER: YieldTriple(food=2),
    SpecialKind.PEAT: YieldTriple(production=2),
    SpecialKind.SPICE: YieldTriple(trade=3),
    SpecialKind.FISH: YieldTriple(food=2),
    # boosts two products at once, which is why players favour it
    SpecialKind.WHALES: YieldTriple(food=1, production=1),
}
RIVER_TRADE_BONUS = 1
# the city center tile counts as developed; without extra center food a
# size-1 city can never out-produce its own consumption and never grows
CENTER_BONUS = YieldTriple(food=2, production=1)
# the economy, also fixed: (gold, luxury, science) rates of trade, food stored
# per citizen to grow, food eaten per citizen, and a settler's two costs
TRADE_SPLIT = (0.5, 0.0, 0.5)
GROWTH_THRESHOLD_BASE = 6
FOOD_PER_CITIZEN = 2
SETTLER_PRODUCTION_COST = 10
SETTLER_POPULATION_COST = 1


@dataclass(frozen=True)
class GameConfig:
    turn_limit: int = 120
    min_city_distance: int = 2
    max_cities: int = 8
    initial_settlers: int = 1

    def __post_init__(self):
        if self.turn_limit < 1:
            raise ValueError("turn_limit must be >= 1")
        if self.min_city_distance < 1:
            raise ValueError("min_city_distance must be >= 1: a city center holds one city")
        if self.max_cities < 1:
            # the starting settlers found whatever the cap, so below 1 it is never honoured
            raise ValueError(f"max_cities must be >= 1, got {self.max_cities}")


def tile_yield(tile) -> YieldTriple:
    """Base terrain yield plus special bonus plus river trade bonus."""
    y = TERRAIN_YIELDS[tile.terrain]
    if tile.special is not None:
        y = y + SPECIAL_BONUSES[tile.special]
    if tile.river:
        y = y + YieldTriple(trade=RIVER_TRADE_BONUS)
    return y


def convert_trade(trade: int) -> tuple[int, int, int]:
    """Split trade into (gold, luxury, science) at TRADE_SPLIT: floors, remainder to science."""
    if trade < 0:
        raise ValueError("negative trade")
    gold = math.floor(trade * TRADE_SPLIT[0])
    luxury = math.floor(trade * TRADE_SPLIT[1])
    science = trade - gold - luxury
    return gold, luxury, science


@dataclass
class City:
    id: int
    player: int
    x: int
    y: int
    founded_turn: int
    citizens: int = 1
    worked: set[tuple[int, int]] = field(default_factory=set)
    food_store: int = 0
    production_store: int = 0
    # per-turn output of `worked` and its (y, x)-sorted list for the turn
    # record; both dropped whenever `worked` changes
    points: OutputPoints | None = field(default=None, init=False, repr=False, compare=False)
    points_total: int = field(default=0, init=False, repr=False, compare=False)  # points.weighted_total()
    worked_sorted: list[tuple[int, int]] | None = field(default=None, init=False, repr=False, compare=False)
    # the 20 non-center cluster tiles as (tile index, coord), best first by
    # (-weight, y, x); weights are fixed per game, so sorted once at founding
    candidates: tuple[tuple[int, tuple[int, int]], ...] = field(default=(), repr=False, compare=False)
    # the last turn record journaled; later turns share it while unchanged
    record: CityTurnRecord | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class Settler:
    id: int
    player: int
    x: int
    y: int
    target: tuple[int, int] | None = None
    # the agent's decision at targeting time: FoundingRecord fields (score,
    # features, trace, evaluator, decided turn), journaled on founding
    decision: dict | None = None


@dataclass
class PlayerState:
    player_id: int
    cities: list[City] = field(default_factory=list)
    settlers: list[Settler] = field(default_factory=list)
    # running tallies, for the RL state features. Tiles are only ever
    # claimed, never released, and weights are ints, so the tile tallies
    # equal a recount over `GameState.owner`. `output` is the player's TGO
    # so far: the city phase adds each city's weighted points every turn.
    owned_tiles: int = 0
    owned_weight: int = 0
    specials_owned: int = 0
    output: int = 0


@dataclass
class FoundingRecord:
    turn: int
    player: int
    city_id: int
    x: int
    y: int
    score: float | None = None
    features: list[float] | None = None
    trace: dict | None = None
    evaluator: str | None = None
    decided_turn: int | None = None


@dataclass(frozen=True)
class CityTurnRecord:
    """A city's state on one turn. One record stands for every consecutive
    turn with the same state, in journals and in loaded logs alike, so it
    is frozen; `worked` must not be edited either."""

    city_id: int
    player: int
    x: int
    y: int
    citizens: int
    worked: list[tuple[int, int]]
    points: OutputPoints


@dataclass
class TurnRecord:
    turn: int
    # in a played or loaded log, a turn on which no city record changed
    # holds the turn before's list itself; do not edit it
    cities: list[CityTurnRecord] = field(default_factory=list)
    targets: list[tuple[int, tuple[int, int]]] = field(default_factory=list)
    foundings: list[FoundingRecord] = field(default_factory=list)


@dataclass
class GameState:
    map: GameMap
    config: GameConfig
    turn: int = 1
    players: list[PlayerState] = field(default_factory=list)
    finished: bool = False
    next_city_id: int = 0
    next_settler_id: int = 0
    # per tile, row-major (y * width + x): the claiming player and the
    # working city id, None when free; the map itself holds no game state
    owner: list[int | None] = field(default_factory=list, repr=False)
    worked_by: list[int | None] = field(default_factory=list, repr=False)
    # per map, shared by every game on the map; read only
    yields: dict[tuple[int, int], YieldTriple] = field(default_factory=dict, repr=False)
    # per-turn contribution of a worked tile to the weighted output sum:
    # food + 2*production + trade + (gold+luxury+science), and the derived
    # points always partition the trade
    weights: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    # (players, height, width) bool: each player's legal centers; only
    # `found_city` writes it (spacing boxes, and claims for other players)
    legal: np.ndarray | None = field(default=None, repr=False)
    # set when owners, centers or head counts changed since the last full
    # rebooking of worked tiles (a founding, a growth, a settler built)
    rebook_due: bool = False
    # the turn's journal; None while replaying
    events: TurnRecord | None = field(default=None, repr=False)

    def index(self, coord: tuple[int, int]) -> int:
        """Position of a tile in the per-tile lists."""
        return coord[1] * self.map.width + coord[0]

    def player(self, player_id: int) -> PlayerState:
        return self.players[player_id]

    def all_cities(self):
        for p in self.players:
            yield from p.cities


def new_game(game_map: GameMap, config: GameConfig, num_players: int = 1) -> GameState:
    yields, weights = _tile_yields(game_map)
    return GameState(
        map=game_map,
        config=config,
        players=[PlayerState(player_id=i) for i in range(num_players)],
        owner=[None] * len(game_map.tiles),
        worked_by=[None] * len(game_map.tiles),
        yields=yields,
        weights=weights,
        legal=np.repeat(cluster_table(game_map).sites[np.newaxis], num_players, axis=0),
    )


def _tile_yields(game_map: GameMap):
    """Per-tile yields and weights, built once per map and cached on it
    beside its cluster table."""
    if game_map._yields is None:
        yields, weights = {}, {}
        # (terrain code, special code or -1, river) -> (yield, weight)
        by_kind: dict[tuple, tuple[YieldTriple, int]] = {}
        for t in game_map.tiles:
            kind = (t.terrain.code, -1 if t.special is None else t.special.code, t.river)
            if kind not in by_kind:
                y = tile_yield(t)
                by_kind[kind] = (y, y.food + 2 * y.production + 2 * y.trade)
            yields[(t.x, t.y)], weights[(t.x, t.y)] = by_kind[kind]
        game_map._yields = (yields, weights)
    return game_map._yields


def add_settler(state: GameState, player_id: int, coord: tuple[int, int]) -> Settler:
    s = Settler(id=state.next_settler_id, player=player_id, x=coord[0], y=coord[1])
    state.next_settler_id += 1
    state.player(player_id).settlers.append(s)
    return s


def default_start_position(game_map: GameMap) -> tuple[int, int]:
    """Buildable cluster-valid tile closest to the map center; ties by (y, x)."""
    ys, xs = np.nonzero(cluster_table(game_map).sites)
    if not len(xs):
        raise SimulationError("map has no buildable tile with an in-bounds cluster")
    d = (xs - (game_map.width - 1) / 2) ** 2 + (ys - (game_map.height - 1) / 2) ** 2
    _, y, x = min(zip(d.tolist(), ys.tolist(), xs.tolist()))
    return x, y


def place_initial_settlers(state: GameState, player_id: int = 0) -> None:
    start = default_start_position(state.map)
    for _ in range(state.config.initial_settlers):
        add_settler(state, player_id, start)


def city_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def is_legal_founding_site(state: GameState, player_id: int, coord: tuple[int, int]) -> bool:
    """README's founding rule, as kept by `found_city`; bounds first, since a negative index wraps."""
    x, y = coord
    return 0 <= x < state.map.width and 0 <= y < state.map.height and bool(state.legal[player_id, y, x])


def legal_founding_sites(state: GameState, player_id: int) -> list[tuple[int, int]]:
    """All legal centers in (y, x) order."""
    ys, xs = np.nonzero(state.legal[player_id])
    return list(zip(xs.tolist(), ys.tolist()))


def found_city(state: GameState, player_id: int, coord: tuple[int, int]) -> City:
    """Found a city of one citizen working its center; consumes a settler there."""
    if not is_legal_founding_site(state, player_id, coord):
        raise ValueError(f"{coord} is not a legal founding site for player {player_id}")
    x, y = coord
    player = state.player(player_id)
    settler = next((s for s in player.settlers if (s.x, s.y) == coord), None)
    if settler is None:
        raise ValueError(f"player {player_id} has no settler at {coord}")

    city = City(id=state.next_city_id, player=player_id, x=x, y=y, founded_turn=state.turn)
    cluster_tiles = cluster_at(state.map, coord).tiles
    cluster = [t.coord for t in cluster_tiles]
    ranked = sorted(cluster, key=lambda c: (-state.weights[c], c[1], c[0]))
    city.candidates = tuple((state.index(c), c) for c in ranked if c != coord)
    state.next_city_id += 1
    player.cities.append(city)
    player.settlers.remove(settler)
    reach = state.config.min_city_distance - 1
    state.legal[:, max(y - reach, 0) : y + reach + 1, max(x - reach, 0) : x + reach + 1] = False
    claimed = []
    for tile in cluster_tiles:
        i = state.index(tile.coord)
        if state.owner[i] is None:
            state.owner[i] = player_id
            claimed.append(i)
            player.owned_tiles += 1
            player.owned_weight += state.weights[tile.coord]
            player.specials_owned += tile.special is not None
    for other in state.players:
        if other is not player:
            state.legal[other.player_id].put(claimed, False)
    # center is worked from the founding turn on; evict any neighbour working it
    center = state.index(coord)
    displaced = state.worked_by[center]
    if displaced is not None:
        for other in state.all_cities():
            if other.id == displaced:
                # edited in place: the next rebooking may leave this set as it
                # is, so its cached output goes now
                other.worked.discard(coord)
                other.points = other.worked_sorted = None
    city.worked = {coord}
    state.worked_by[center] = city.id
    state.rebook_due = True

    if state.events is not None:
        state.events.foundings.append(
            FoundingRecord(turn=state.turn, player=player_id, city_id=city.id, x=x, y=y, **(settler.decision or {}))
        )
    return city


def set_settler_target(
    state: GameState, settler: Settler, target: tuple[int, int], decision: dict | None = None
) -> None:
    settler.target = target
    settler.decision = decision
    if state.events is not None:
        state.events.targets.append((settler.id, target))


def assign_citizens(state: GameState, city: City) -> set[tuple[int, int]]:
    """Greedy worked-set: center always, then best eligible tiles by weight.

    Eligible tiles are cluster tiles not worked by another city and not
    claimed by another player; ties break by (y, x) ascending.
    """
    return {city.coord, *itertools.islice(_eligible_tiles(state, city), max(0, city.citizens - 1))}


def _eligible_tiles(state: GameState, city: City):
    """The city's non-center eligible tiles, best first, as needed."""
    owner, worked_by = state.owner, state.worked_by
    return (
        coord
        for i, coord in city.candidates
        if worked_by[i] in (None, city.id) and owner[i] in (None, city.player)
    )


def _settler_step(state: GameState, settler: Settler) -> None:
    tx, ty = settler.target  # type: ignore[misc]
    width, height = state.map.width, state.map.height
    buildable = cluster_table(state.map).buildable
    best = None
    current = city_distance((settler.x, settler.y), (tx, ty))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = settler.x + dx, settler.y + dy
            if not (0 <= nx < width and 0 <= ny < height and buildable[ny * width + nx]):
                continue
            d = city_distance((nx, ny), (tx, ty))
            if d >= current:
                continue
            key = (d, ny, nx)
            if best is None or key < best[0]:
                best = (key, (nx, ny))
    if best is not None:
        settler.x, settler.y = best[1]


def _settler_phase(state: GameState) -> None:
    for player in state.players:
        for settler in list(player.settlers):
            if settler.target is None:
                continue
            if (settler.x, settler.y) == settler.target:
                if is_legal_founding_site(state, player.player_id, settler.target):
                    found_city(state, player.player_id, settler.target)
                else:
                    settler.target = None  # agent retargets next turn
            else:
                _settler_step(state, settler)
                if (settler.x, settler.y) == settler.target and is_legal_founding_site(
                    state, player.player_id, settler.target
                ):
                    found_city(state, player.player_id, settler.target)


def _city_phase(state: GameState) -> None:
    """Every city, oldest first: rebook if due, produce, grow, build settlers.

    Each city's output is journaled as one frozen `CityTurnRecord`, and the
    same record object stands for the city on every later turn until its
    head count, worked tiles or points change. Logs hold no city records:
    reading a log replays its decisions, journal on, and so shares them too.
    """
    cities = sorted(state.all_cities(), key=lambda c: c.id)

    # re-book non-center worked tiles, oldest city first; the center stays
    # booked so no neighbour can ever claim it. The result depends only on
    # owners, centers and head counts, so it is redone only after one of
    # them changed: the same sets as re-booking every turn.
    if state.rebook_due:
        state.rebook_due = False
        for city in cities:
            _release_worked(state, city)
        for city in cities:
            _book_worked(state, city)

    for city in cities:
        points = _city_points(state, city)
        player = state.player(city.player)
        player.output += city.points_total
        if state.events is not None:
            state.events.cities.append(_city_record(city, points))

        city.food_store = max(0, city.food_store + points.food - FOOD_PER_CITIZEN * city.citizens)
        population_before = city.citizens
        threshold = GROWTH_THRESHOLD_BASE * city.citizens
        # room for one more beside the center; with 20 candidate tiles this
        # caps a city at 21 citizens
        if city.food_store >= threshold and len(list(_eligible_tiles(state, city))) >= city.citizens:
            city.citizens += 1
            city.food_store -= threshold

        expansion_slots = len(player.cities) + len(player.settlers) < state.config.max_cities
        if city.citizens >= 3 and expansion_slots:
            city.production_store += points.production
            if city.production_store >= SETTLER_PRODUCTION_COST:
                city.production_store -= SETTLER_PRODUCTION_COST
                city.citizens -= SETTLER_POPULATION_COST
                add_settler(state, city.player, city.coord)

        if city.citizens != population_before:
            # population changed after this turn's work: rebook now so the
            # worked set always matches the head count (production applies
            # from the next turn), and all cities at the next turn
            _release_worked(state, city)
            _book_worked(state, city)
            state.rebook_due = True


def _city_record(city: City, points: OutputPoints) -> CityTurnRecord:
    """The city's turn record: the one journaled last while its head count,
    worked tiles and points are unchanged, else a new one. The cached
    worked list and points are usually the very objects it holds, so the
    tuple comparison seldom looks past identity."""
    if city.worked_sorted is None:
        city.worked_sorted = sorted(city.worked, key=lambda c: (c[1], c[0]))
    rec = city.record
    if rec is None or (rec.citizens, rec.worked, rec.points) != (city.citizens, city.worked_sorted, points):
        city.record = rec = CityTurnRecord(
            city_id=city.id,
            player=city.player,
            x=city.x,
            y=city.y,
            citizens=city.citizens,
            worked=city.worked_sorted,
            points=points,
        )
    return rec


def _city_points(state: GameState, city: City) -> OutputPoints:
    """The city's output for one turn of its worked set, cached on the city."""
    if city.points is None:
        total = YieldTriple()
        for coord in city.worked:
            total = total + state.yields[coord]
        total = total + CENTER_BONUS
        gold, luxury, science = convert_trade(total.trade)
        city.points = OutputPoints(
            gold=gold,
            luxury=luxury,
            science=science,
            food=total.food,
            production=total.production,
            trade=total.trade,
        )
        city.points_total = city.points.weighted_total()
    return city.points


def _release_worked(state: GameState, city: City) -> None:
    for coord in city.worked:
        i = state.index(coord)
        if coord != city.coord and state.worked_by[i] == city.id:
            state.worked_by[i] = None


def _book_worked(state: GameState, city: City) -> None:
    worked = assign_citizens(state, city)
    if worked != city.worked:
        city.worked = worked
        city.points = city.worked_sorted = None
    for coord in city.worked:
        state.worked_by[state.index(coord)] = city.id
    city.citizens = min(city.citizens, len(city.worked))  # displaced citizens disband (defensive)


def step_turn(state: GameState, agent=None) -> TurnRecord:
    """Play one turn: agent targets settlers, settlers walk/found, cities produce."""
    if state.finished:
        raise SimulationError(f"game already finished at turn {state.turn}")
    state.events = record = TurnRecord(turn=state.turn)
    _play_turn(state, agent)
    state.events = None
    return record


def _play_turn(state: GameState, agent) -> None:
    """Play one turn, journaled into `state.events` unless that is None."""
    if agent is not None:
        agent.act(state)
    _settler_phase(state)
    _city_phase(state)
    if state.turn >= state.config.turn_limit:
        state.finished = True
    else:
        state.turn += 1


# ---------------------------------------------------------------------------
# Episode driving and the line-delimited log format


@dataclass
class EpisodeLog:
    seed: int
    map_text: str
    config: GameConfig
    evaluator: str
    player: int
    turns: list[TurnRecord]
    final_tgo: int

    def foundings(self) -> list[FoundingRecord]:
        return [f for tr in self.turns for f in tr.foundings]

    def decoded_map(self) -> GameMap:
        """The map the episode was played on, shared with the last log asked
        for it when both hold the same map text; do not edit it."""
        return _decoded_map(self.map_text)

    def city_points(self, city_id: int) -> list[OutputPoints]:
        """Per-turn output of one city, in turn order."""
        return [
            cr.points
            for tr in self.turns
            for cr in tr.cities
            if cr.city_id == city_id
        ]


def run_episode(
    agent,
    config: GameConfig,
    seed: int,
    *,
    game_map: GameMap | None = None,
    mapgen: MapGenConfig | None = None,
    evaluator_name: str = "unknown",
    on_turn=None,
) -> EpisodeLog:
    """Run one full game, as player 0 of a one-player game; the log replays
    to the same final TGO.

    A given `game_map` is played as is: games never write to the map, so
    every episode on it shares its cluster table and its encoded text.
    """
    episode_map = game_map if game_map is not None else generate_map(mapgen or MapGenConfig(), seed)
    turns, tgo = _journaled_game(episode_map, config, agent, on_turn)
    return EpisodeLog(seed=seed, map_text=encode_map(episode_map), config=config, evaluator=evaluator_name,
                      player=0, turns=turns, final_tgo=tgo)


def _journaled_game(game_map: GameMap, config: GameConfig, agent, on_turn=None):
    """(turn records, player 0's final TGO) of one game played journal on. A
    turn on which no city record changed shares the turn before's list."""
    state = new_game(game_map, config)
    place_initial_settlers(state)
    turns: list[TurnRecord] = []
    while not state.finished:
        record = step_turn(state, agent)
        if turns and len(record.cities) == len(turns[-1].cities):
            if all(map(operator.is_, record.cities, turns[-1].cities)):
                record.cities = turns[-1].cities
        turns.append(record)
        if on_turn is not None:
            on_turn(state)
    return turns, state.player(0).output


class ReplayAgent:
    """Re-applies the logged settler target assignments turn by turn;
    ValueError for a target that names no settler on the board or is not
    two int coordinates."""

    def __init__(self, log: EpisodeLog):
        self._by_turn = {tr.turn: tr.targets for tr in log.turns}

    def act(self, state: GameState) -> None:
        targets = self._by_turn.get(state.turn)
        if not targets:
            return
        settlers = {s.id: s for p in state.players for s in p.settlers}
        for settler_id, target in targets:
            if settler_id not in settlers:
                raise ValueError(f"turn {state.turn}: a target for settler {settler_id!r}, not on the board")
            if len(target) != 2 or not all(type(c) is int for c in target):
                raise ValueError(f"turn {state.turn}: settler {settler_id}'s target {target!r} is not two ints")
            set_settler_target(state, settlers[settler_id], tuple(target))


@functools.lru_cache(maxsize=1)
def _decoded_map(map_text: str) -> GameMap:
    """One entry: consecutive logs of a fixed-map run share one decoded map
    and its cluster table, which is safe because games never write to the
    map. Logs of a fresh map per episode just miss."""
    return decode_map(map_text)


def replay_episode(log: EpisodeLog) -> int:
    """Re-run the logged episode from its seed and decisions; returns final TGO.

    Only the TGO is wanted, so the turns are played without a journal.
    """
    state = new_game(log.decoded_map(), log.config)
    place_initial_settlers(state)
    agent = ReplayAgent(log)
    while not state.finished:
        _play_turn(state, agent)
    return state.player(0).output


# -- log (de)serialization --------------------------------------------------


# the format number every header carries: logs of decisions only
LOG_FORMAT = 2
# json.dumps(obj, sort_keys=True) without building a new encoder per record
_encode_record = json.JSONEncoder(sort_keys=True).encode


def write_episode_log(log: EpisodeLog, path) -> None:
    """One `json.dumps(sort_keys=True)` record per line: header, each
    turn's decisions (targets and founding records) and a footer. City
    records are not written: reading the log rebuilds them by replay."""
    header = {
        "kind": "header",
        "format": LOG_FORMAT,
        "seed": log.seed,
        "map": log.map_text,
        "evaluator": log.evaluator,
        "player": log.player,
        "config": dataclasses.asdict(log.config),
    }
    lines = [_encode_record(header)]
    for tr in log.turns:
        # tuples encode as arrays, and a founding record's fields are its vars
        foundings = list(map(vars, tr.foundings))
        lines.append(_encode_record({"kind": "turn", "turn": tr.turn, "targets": tr.targets, "foundings": foundings}))
    lines.append(_encode_record({"kind": "footer", "final_tgo": log.final_tgo, "turns": len(log.turns)}))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _founded(foundings: list[FoundingRecord]) -> list[tuple]:
    return [(f.turn, f.player, f.city_id, f.x, f.y) for f in foundings]


def read_episode_log(path) -> EpisodeLog:
    """The log at `path`, its turn records rebuilt by replaying its targets
    with the journal on, beside its founding records. ValueError naming the
    file for a malformed log, and for one whose replay founds other cities
    or ends on another TGO than it records."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]

    def record(line: str) -> dict:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("a record is not a JSON object")
        return rec

    try:
        header = record(lines[0]) if lines else {}
        footer = record(lines[-1]) if lines else {}
        if header.get("kind") != "header" or footer.get("kind") != "footer":
            raise ValueError("not a complete episode log")
        if header.get("format") != LOG_FORMAT:
            raise ValueError(f"log format {header.get('format')!r}, not {LOG_FORMAT}")
        if type(header.get("player")) is not int or header["player"] != 0:
            raise ValueError(f"header player {header.get('player')!r}, not 0: an episode has one player")
        logged = []
        for rec in map(record, lines[1:-1]):
            if rec.get("kind") != "turn":
                raise ValueError(f"unexpected record kind {rec.get('kind')!r}")
            if rec["turn"] != len(logged) + 1:
                raise ValueError(f"turn record {len(logged) + 1} is numbered {rec['turn']!r}")
            targets = [(sid, tuple(t)) for sid, t in rec["targets"]]
            foundings = [FoundingRecord(**f) for f in rec["foundings"]]
            logged.append(TurnRecord(rec["turn"], targets=targets, foundings=foundings))
        if footer["turns"] != len(logged):
            raise ValueError(f"footer reports {footer['turns']} turns, found {len(logged)}")
        log = EpisodeLog(
            seed=header["seed"],
            map_text=header["map"],
            config=GameConfig(**header["config"]),
            evaluator=header["evaluator"],
            player=header["player"],
            turns=logged,
            final_tgo=footer["final_tgo"],
        )
        # a game lasts turn_limit turns; checked first, so no replay runs long
        if log.config.turn_limit != len(logged):
            raise ValueError(f"config turn_limit {log.config.turn_limit}, but {len(logged)} turn records")
        log.turns, tgo = _journaled_game(log.decoded_map(), log.config, ReplayAgent(log))
        for played, decided in zip(log.turns, logged):
            if _founded(played.foundings) != _founded(decided.foundings):
                raise ValueError(
                    f"turn {played.turn}: the replay founds (turn, player, city id, x, y)"
                    f" {_founded(played.foundings)}, the log records {_founded(decided.foundings)}"
                )
            # the logged records carry the decision: score, features, trace
            played.foundings = decided.foundings
        if tgo != log.final_tgo:
            raise ValueError(f"the replay ends on TGO {tgo}, the footer records {log.final_tgo}")
        return log
    except (KeyError, TypeError, ValueError, SimulationError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {reason}") from None
