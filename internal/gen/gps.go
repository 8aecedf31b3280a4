package gen

import (
	"math"
	"math/rand"
)

// RoadGrid is a synthetic road network: Rows horizontal and Cols vertical
// roads on a regular grid. It provides the ground truth the map-matching
// operator of the traffic-monitoring application searches.
type RoadGrid struct {
	Rows, Cols int
	// Spacing is the distance between adjacent parallel roads, in degrees.
	Spacing float64
	// OriginLat/OriginLon anchor the grid.
	OriginLat, OriginLon float64
}

// NewRoadGrid builds a grid anchored near Beijing (the GeoLife region).
func NewRoadGrid(rows, cols int) *RoadGrid {
	return &RoadGrid{
		Rows: rows, Cols: cols,
		Spacing:   0.01, // ~1.1 km
		OriginLat: 39.9, OriginLon: 116.3,
	}
}

// Roads returns the total number of roads.
func (g *RoadGrid) Roads() int { return g.Rows + g.Cols }

// RoadLat returns the latitude of horizontal road r.
func (g *RoadGrid) RoadLat(r int) float64 { return g.OriginLat + float64(r)*g.Spacing }

// RoadLon returns the longitude of vertical road c.
func (g *RoadGrid) RoadLon(c int) float64 { return g.OriginLon + float64(c)*g.Spacing }

// NearestRoad returns the ID of the road closest to a point and its
// distance in degrees. Horizontal roads have IDs 0..Rows-1, vertical roads
// Rows..Rows+Cols-1. This is a brute-force scan: the map-matching operator
// pays for it; tests use it as an oracle.
func (g *RoadGrid) NearestRoad(lat, lon float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for r := 0; r < g.Rows; r++ {
		if d := math.Abs(lat - g.RoadLat(r)); d < bestD {
			best, bestD = r, d
		}
	}
	for c := 0; c < g.Cols; c++ {
		if d := math.Abs(lon - g.RoadLon(c)); d < bestD {
			best, bestD = g.Rows+c, d
		}
	}
	return best, bestD
}

// GPSTrace is one position report from a vehicle, matching the GeoLife
// trajectory schema the paper's TM application consumes.
type GPSTrace struct {
	VehicleID int
	Lat, Lon  float64
	Altitude  float64
	Speed     float64 // km/h
	Bearing   float64 // degrees
	Timestamp int64
}

// GPSGen simulates vehicles driving on a RoadGrid with GPS noise.
type GPSGen struct {
	rng      *rand.Rand
	grid     *RoadGrid
	vehicles []gpsVehicle
	now      int64
}

type gpsVehicle struct {
	road     int // current road ID
	progress float64
	speed    float64
	dir      float64 // +1 or -1 along the road
}

// NewGPSGen places the given number of vehicles randomly on the grid.
func NewGPSGen(seed int64, grid *RoadGrid, vehicles int) *GPSGen {
	rng := rand.New(rand.NewSource(seed))
	g := &GPSGen{rng: rng, grid: grid}
	for i := 0; i < vehicles; i++ {
		g.vehicles = append(g.vehicles, gpsVehicle{
			road:     rng.Intn(grid.Roads()),
			progress: rng.Float64(),
			speed:    20 + rng.Float64()*60,
			dir:      float64(1 - 2*rng.Intn(2)),
		})
	}
	return g
}

// Next returns one trace point.
func (g *GPSGen) Next() GPSTrace {
	id := g.rng.Intn(len(g.vehicles))
	v := &g.vehicles[id]
	g.now++

	v.progress += v.dir * v.speed / 40000
	if v.progress < 0 || v.progress > 1 {
		// Turn onto a random crossing road at the boundary.
		v.road = g.rng.Intn(g.grid.Roads())
		v.progress = g.rng.Float64()
		v.speed = 20 + g.rng.Float64()*60
	}
	noise := func() float64 { return (g.rng.Float64() - 0.5) * g.grid.Spacing * 0.2 }

	var lat, lon, bearing float64
	if v.road < g.grid.Rows { // horizontal road: fixed lat
		lat = g.grid.RoadLat(v.road) + noise()
		lon = g.grid.OriginLon + v.progress*float64(g.grid.Cols-1)*g.grid.Spacing
		bearing = 90
	} else {
		lon = g.grid.RoadLon(v.road-g.grid.Rows) + noise()
		lat = g.grid.OriginLat + v.progress*float64(g.grid.Rows-1)*g.grid.Spacing
		bearing = 0
	}
	return GPSTrace{
		VehicleID: id,
		Lat:       lat,
		Lon:       lon,
		Altitude:  40 + g.rng.Float64()*20,
		Speed:     v.speed,
		Bearing:   bearing,
		Timestamp: g.now,
	}
}
