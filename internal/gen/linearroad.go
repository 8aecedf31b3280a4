package gen

import "math/rand"

// Linear Road record types (Arasu et al., VLDB 2004).
const (
	LRPosition   = 0 // position report
	LRAccountBal = 2 // account balance query
	LRDailyExp   = 3 // daily expenditure query
)

// LRRecord is one input record of the Linear Road benchmark: a position
// report or a historical query request, as in the merged Uppsala datasets
// the paper uses.
type LRRecord struct {
	Type  int
	Time  int64 // seconds since start
	VID   int   // vehicle ID
	Speed int   // mph
	XWay  int   // expressway
	Lane  int   // 0..4
	Dir   int   // 0 east, 1 west
	Seg   int   // segment 0..99
	Pos   int   // position within expressway, feet
	QID   int   // query ID for type 2/3
	Day   int   // for daily expenditure queries
}

// LRConfig sizes the traffic model.
type LRConfig struct {
	XWays    int
	Vehicles int
	Segments int
	// AccidentEvery is the mean number of position reports between
	// accident onsets.
	AccidentEvery int
	// QueryFraction is the share of records that are historical queries.
	QueryFraction float64
}

// DefaultLRConfig returns a laptop-scale Linear Road setup.
func DefaultLRConfig() LRConfig {
	return LRConfig{
		XWays:         2,
		Vehicles:      500,
		Segments:      100,
		AccidentEvery: 4000,
		QueryFraction: 0.02,
	}
}

// LRGen simulates vehicles on a road toll network emitting position
// reports every 30 simulated seconds, with occasional accidents (two
// vehicles stopped at the same location) and interleaved historical
// queries.
type LRGen struct {
	rng      *rand.Rand
	cfg      LRConfig
	vehicles []lrVehicle
	now      int64
	emitted  int64
	qid      int
	next     int // round-robin vehicle cursor
}

type lrVehicle struct {
	xway, dir, seg, lane int
	pos                  int
	speed                int
	stoppedFor           int // accident countdown
}

// NewLRGen builds the traffic model.
func NewLRGen(seed int64, cfg LRConfig) *LRGen {
	rng := rand.New(rand.NewSource(seed))
	g := &LRGen{rng: rng, cfg: cfg}
	for i := 0; i < cfg.Vehicles; i++ {
		g.vehicles = append(g.vehicles, lrVehicle{
			xway:  rng.Intn(cfg.XWays),
			dir:   rng.Intn(2),
			seg:   rng.Intn(cfg.Segments),
			lane:  1 + rng.Intn(3),
			pos:   rng.Intn(cfg.Segments * 5280),
			speed: 40 + rng.Intn(40),
		})
	}
	return g
}

// Next returns one input record.
func (g *LRGen) Next() LRRecord {
	g.emitted++
	if g.rng.Float64() < g.cfg.QueryFraction {
		g.qid++
		vid := g.rng.Intn(g.cfg.Vehicles)
		if g.rng.Intn(2) == 0 {
			return LRRecord{Type: LRAccountBal, Time: g.now, VID: vid, QID: g.qid}
		}
		return LRRecord{
			Type: LRDailyExp, Time: g.now, VID: vid, QID: g.qid,
			XWay: g.rng.Intn(g.cfg.XWays), Day: 1 + g.rng.Intn(69),
		}
	}

	id := g.next
	g.next = (g.next + 1) % len(g.vehicles)
	if id == 0 {
		g.now += 30 // a full round of reports = one 30 s reporting period
	}
	v := &g.vehicles[id]

	// Accident onset: stop this vehicle and its follower for a while.
	if g.cfg.AccidentEvery > 0 && g.rng.Intn(g.cfg.AccidentEvery) == 0 && v.stoppedFor == 0 {
		v.stoppedFor = 4 + g.rng.Intn(4)
		other := &g.vehicles[(id+1)%len(g.vehicles)]
		other.xway, other.dir, other.seg, other.pos = v.xway, v.dir, v.seg, v.pos
		other.lane = v.lane
		other.stoppedFor = v.stoppedFor
	}

	if v.stoppedFor > 0 {
		v.stoppedFor--
		v.speed = 0
	} else {
		if v.speed == 0 {
			v.speed = 30 + g.rng.Intn(30)
		}
		v.pos += v.speed * 44 // ~speed mph over 30 s in feet
		seg := v.pos / 5280
		if seg >= g.cfg.Segments {
			v.pos = 0
			seg = 0
			v.dir = 1 - v.dir
		}
		v.seg = seg
		v.speed += g.rng.Intn(11) - 5
		if v.speed < 10 {
			v.speed = 10
		}
		if v.speed > 100 {
			v.speed = 100
		}
	}
	return LRRecord{
		Type: LRPosition, Time: g.now, VID: id, Speed: v.speed,
		XWay: v.xway, Lane: v.lane, Dir: v.dir, Seg: v.seg, Pos: v.pos,
	}
}

// TollHistory is a per-(vehicle, day) toll table for daily-expenditure
// queries, standing in for Linear Road's 10-week history: vehicles 0 to
// vehicles-1, days 1 to days, each toll in [0, 90).
type TollHistory struct {
	vehicles, days int
	tolls          []uint8 // vehicle-major: vehicle v's day d at v*days+d-1
}

// HistoricalTolls returns a deterministic toll history, drawn vehicle by
// vehicle and, within a vehicle, day by day.
func HistoricalTolls(seed int64, vehicles, days int) TollHistory {
	rng := rand.New(rand.NewSource(seed))
	h := TollHistory{vehicles: vehicles, days: days, tolls: make([]uint8, vehicles*days)}
	for i := range h.tolls {
		h.tolls[i] = uint8(rng.Intn(90))
	}
	return h
}

// Toll returns vehicle vid's toll on day, or 0 for a vehicle or day outside
// the history.
func (h TollHistory) Toll(vid, day int) int {
	if vid < 0 || vid >= h.vehicles || day < 1 || day > h.days {
		return 0
	}
	return int(h.tolls[vid*h.days+day-1])
}
