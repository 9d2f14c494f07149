package quantum

// hostVectorRows is the row kernel the host chose at init.
var hostVectorRows = vectorRows

// setVectorRows turns the vector rows on or off; on holds only on a host
// that chose them.
func setVectorRows(on bool) { vectorRows = on && hostVectorRows }
