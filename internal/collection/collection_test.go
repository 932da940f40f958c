package collection

import (
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
)

func stDoc(id int64, lon, lat float64, at time.Time) *bson.Document {
	return bson.FromD(bson.D{
		{Key: "_id", Value: id},
		{Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: lon, Lat: lat})},
		{Key: "date", Value: at},
	})
}

func TestNewHasIDIndex(t *testing.T) {
	c := New("traces")
	if c.Name() != "traces" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Index(IDIndexName) == nil {
		t.Fatal("missing _id index")
	}
	if len(c.Indexes()) != 1 {
		t.Fatalf("new collection has %d indexes", len(c.Indexes()))
	}
}

func TestInsertRequiresID(t *testing.T) {
	c := New("t")
	if _, err := c.Insert(bson.FromD(bson.D{{Key: "v", Value: int64(1)}})); err == nil {
		t.Fatal("insert without _id succeeded")
	}
}

func TestInsertFetchDelete(t *testing.T) {
	c := New("t")
	at := time.Date(2018, 8, 1, 12, 0, 0, 0, time.UTC)
	id, err := c.Insert(stDoc(1, 23.7, 37.9, at))
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := c.Store().FetchRaw(id)
	if !ok {
		t.Fatal("FetchRaw of the inserted record failed")
	}
	doc, err := bson.Unmarshal(raw)
	if err != nil || doc.Get("_id") != int64(1) {
		t.Fatalf("stored document: %v, %v", doc, err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after delete = %d", c.Len())
	}
	if c.Index(IDIndexName).Len() != 0 {
		t.Fatal("_id index entry not removed")
	}
	if err := c.Delete(id); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	c := New("t")
	at := time.Now()
	for i := int64(1); i <= 10; i++ {
		if _, err := c.Insert(stDoc(i, 23.7, 37.9, at)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := c.CreateIndex(index.Definition{
		Name:   "date_1",
		Fields: []index.Field{{Name: "date", Kind: index.Ascending}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 10 {
		t.Fatalf("backfilled %d entries", ix.Len())
	}
	// Duplicate name rejected.
	if _, err := c.CreateIndex(index.Definition{
		Name:   "date_1",
		Fields: []index.Field{{Name: "date", Kind: index.Ascending}},
	}); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	// New inserts maintain the index.
	if _, err := c.Insert(stDoc(11, 23.7, 37.9, at)); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 11 {
		t.Fatalf("index not maintained: %d", ix.Len())
	}
}

func TestInsertRollsBackOnIndexError(t *testing.T) {
	c := New("t")
	if _, err := c.CreateIndex(index.Definition{
		Name:   "loc",
		Fields: []index.Field{{Name: "location", Kind: index.Geo2DSphere}},
	}); err != nil {
		t.Fatal(err)
	}
	bad := bson.FromD(bson.D{
		{Key: "_id", Value: int64(1)},
		{Key: "location", Value: "not geojson"},
	})
	if _, err := c.Insert(bad); err == nil {
		t.Fatal("insert with bad geo value succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("failed insert left a document behind")
	}
	if c.Index(IDIndexName).Len() != 0 {
		t.Fatal("failed insert left an _id index entry behind")
	}
}

func TestBackfillErrorAbortsCreateIndex(t *testing.T) {
	c := New("t")
	doc := bson.FromD(bson.D{
		{Key: "_id", Value: int64(1)},
		{Key: "location", Value: "scalar"},
	})
	if _, err := c.Insert(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex(index.Definition{
		Name:   "loc",
		Fields: []index.Field{{Name: "location", Kind: index.Geo2DSphere}},
	}); err == nil {
		t.Fatal("backfill over non-geo values succeeded")
	}
	if c.Index("loc") != nil {
		t.Fatal("failed index creation registered the index")
	}
}

func TestSizeAccounting(t *testing.T) {
	c := New("t")
	at := time.Now()
	for i := int64(1); i <= 100; i++ {
		c.Insert(stDoc(i, 23.7, 37.9, at))
	}
	if c.DataBytes() <= 0 {
		t.Fatal("DataBytes = 0")
	}
	before := c.IndexBytes()
	c.CreateIndex(index.Definition{
		Name:   "date_1",
		Fields: []index.Field{{Name: "date", Kind: index.Ascending}},
	})
	if c.IndexBytes() <= before {
		t.Fatal("IndexBytes did not grow with a new index")
	}
}
