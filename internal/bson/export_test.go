package bson

// PointFrame exposes the canonical GeoJSON point's constant bytes to
// the external test that holds geo.GeoJSONPoint's encoding to them.
var PointFrame = [3]string{pointFrameHead, pointFrameMid, pointFrameTail}
